#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "sched/validate.hpp"

namespace cgra {

Simulator::Simulator(const Composition& comp, const Schedule& sched)
    : comp_(&comp), sched_(&sched) {
  // Reject structurally corrupt schedules up front (e.g. bit-flipped
  // context images): every reference must stay in range so execution can
  // never touch memory out of bounds, and every context must hold one op
  // per PE, one C-Box op and one branch.
  requireValidSchedule(sched, "simulator: corrupt schedule", &comp);
  startAt_.assign(sched.length, {});
  cboxAt_.assign(sched.length, nullptr);
  branchAt_.assign(sched.length, nullptr);
  // Each op's energy is looked up once here, not per issue; an op its PE
  // cannot run fails construction with the descriptor's cgra::Error.
  for (const ScheduledOp& op : sched.ops)
    startAt_[op.start].push_back(
        Issue{&op, comp.pe(op.pe).impl(op.op).energy});
  for (const CBoxOp& op : sched.cboxOps) cboxAt_[op.time] = &op;
  for (const BranchOp& b : sched.branches) branchAt_[b.time] = &b;
}

namespace {

/// An in-flight operation: result computed at issue, committed after the
/// remaining cycles elapse.
struct InFlight {
  const ScheduledOp* op;
  unsigned remaining;       ///< cycles until commit (1 = commits this cycle)
  bool suppressed;          ///< predicated off: no commit
  std::int32_t result = 0;  ///< RF write value (or DMA load result)
  bool status = false;      ///< comparison outcome
};

}  // namespace

SimResult Simulator::run(const std::map<VarId, std::int32_t>& liveIns,
                         HostMemory& heap, const SimOptions& opts) const {
  return runWindow(liveIns, heap, sched_->liveIns, sched_->liveOuts, 0,
                   sched_->length, opts);
}

SimResult Simulator::runWindow(const std::map<VarId, std::int32_t>& liveIns,
                               HostMemory& heap,
                               const std::vector<LiveBinding>& liveInBindings,
                               const std::vector<LiveBinding>& liveOutBindings,
                               unsigned startCcnt, unsigned endCcnt,
                               const SimOptions& opts) const {
  CGRA_ASSERT_MSG(startCcnt <= endCcnt && endCcnt <= sched_->length,
                  "invalid CCNT window");
  SimResult result;

  // Hardware counters (single null test per guard when disabled, the same
  // discipline as CGRA_TRACE). Reset here: every invocation starts fresh.
  SimCounters countersStorage;
  SimCounters* const ctr = opts.collectCounters ? &countersStorage : nullptr;
  // peState[p]: 0 idle, 1 scheduled NOP in flight, 2 busy. touched[p][r]:
  // vreg r of PE p has committed a write (for the regsTouched peak bound).
  std::vector<std::uint8_t> peState;
  std::vector<std::vector<std::uint8_t>> touched;
  if (ctr) {
    ctr->reset(comp_->numPEs(), sched_->length);
    peState.assign(comp_->numPEs(), 0);
    touched.resize(comp_->numPEs());
    for (PEId p = 0; p < comp_->numPEs(); ++p)
      touched[p].assign(std::max(1u, sched_->vregsPerPE[p]), 0);
  }

  // Register files (virtual registers) and condition memory.
  std::vector<std::vector<std::int32_t>> regs(comp_->numPEs());
  for (PEId p = 0; p < comp_->numPEs(); ++p)
    regs[p].assign(std::max(1u, sched_->vregsPerPE[p]), 0);
  std::vector<std::uint8_t> condMem(std::max(1u, sched_->cboxSlotsUsed), 0);

  // Live-in transfer (2 cycles per variable, Fig. 6). Protocol cycles, not
  // PE work: attributed to invocationCycles / liveInTransferCycles only.
  for (const LiveBinding& lb : liveInBindings) {
    const auto it = liveIns.find(lb.var);
    regs[lb.pe][lb.vreg] = it == liveIns.end() ? 0 : it->second;
    result.invocationCycles += kCyclesPerTransfer;
    if (ctr) ctr->liveInTransferCycles += kCyclesPerTransfer;
  }

  std::vector<InFlight> inflight;
  std::uint64_t cycles = 0;
  unsigned ccnt = startCcnt;

  auto readOperand = [&](const OperandSource& src) -> std::int32_t {
    switch (src.kind) {
      case OperandSource::Kind::None: return 0;
      case OperandSource::Kind::Own:
        CGRA_UNREACHABLE("Own reads resolve through the op's own PE");
      case OperandSource::Kind::Route:
        return regs[src.srcPE][src.vreg];
      case OperandSource::Kind::Imm: return src.imm;
    }
    CGRA_UNREACHABLE("bad operand kind");
  };

  while (ccnt < endCcnt) {
    if (++cycles > opts.maxCycles)
      throw Error("simulator: cycle budget exceeded (runaway loop?)");

    // -- start of cycle: snapshot predication/branch reads --------------------
    auto readPred = [&](const PredRef& p) -> bool {
      return (condMem[p.slot] != 0) == p.polarity;
    };
    const BranchOp* branch = branchAt_[ccnt];
    const bool branchTaken =
        branch && (!branch->conditional || readPred(branch->pred));

    if (ctr) {
      ++ctr->contextExec[ccnt];
      if (branch) ++(branchTaken ? ctr->branchesTaken : ctr->branchesNotTaken);
    }

    // -- issue operations starting this context -------------------------------
    for (const auto& [op, energy] : startAt_[ccnt]) {
      InFlight fl{op, op->duration, false, 0, false};
      fl.suppressed = op->pred && !readPred(*op->pred);

      if (ctr) {
        PECounters& pc = ctr->perPE[op->pe];
        ++pc.opsIssued;
        ++pc.byClass[static_cast<unsigned>(opClassOf(op->op))];
        if (fl.suppressed) {
          ++pc.squashedOps;
          if (isMemoryOp(op->op)) ++ctr->dmaSuppressed;
        }
        // Operand fetches latch at issue, before the predication gate: an RF
        // read serves from the owning PE's file; a routed read additionally
        // crosses the srcPE→op.pe link.
        for (const OperandSource& src : op->src) {
          if (src.kind == OperandSource::Kind::Own) {
            ++pc.rfReads;
          } else if (src.kind == OperandSource::Kind::Route) {
            ++ctr->perPE[src.srcPE].rfReads;
            ++ctr->linkTransfers[static_cast<std::size_t>(src.srcPE) *
                                     ctr->numPEs +
                                 op->pe];
          }
        }
      }

      auto readSrc = [&](unsigned i) -> std::int32_t {
        const OperandSource& s = op->src[i];
        if (s.kind == OperandSource::Kind::Own) return regs[op->pe][s.vreg];
        return readOperand(s);
      };

      result.energy += fl.suppressed ? defaultEnergy(Op::NOP) : energy;

      switch (op->op) {
        case Op::NOP: break;
        case Op::CONST:
          fl.result = op->src[0].imm;
          break;
        case Op::MOVE:
          fl.result = readSrc(0);
          break;
        case Op::DMA_LOAD: {
          if (!fl.suppressed) {
            fl.result = heap.load(readSrc(0), readSrc(1));
            ++result.dmaLoads;
          }
          break;
        }
        case Op::DMA_STORE: {
          if (!fl.suppressed) {
            heap.store(readSrc(0), readSrc(1), readSrc(2));
            ++result.dmaStores;
          }
          break;
        }
        default:
          if (producesStatus(op->op)) {
            fl.status = evalCompare(op->op, readSrc(0), readSrc(1));
          } else if (operandCount(op->op) == 1) {
            fl.result = evalArith(op->op, readSrc(0), 0);
          } else {
            fl.result = evalArith(op->op, readSrc(0), readSrc(1));
          }
      }
      inflight.push_back(fl);
    }

    if (ctr) {
      // busy/nop/idle: an op occupies its PE from issue through its commit
      // cycle inclusive; busy + nop + idle == runCycles for every PE.
      std::fill(peState.begin(), peState.end(), std::uint8_t{0});
      for (const InFlight& fl : inflight)
        peState[fl.op->pe] = std::max<std::uint8_t>(
            peState[fl.op->pe], fl.op->op == Op::NOP ? 1 : 2);
      for (PEId p = 0; p < ctr->numPEs; ++p) {
        PECounters& pc = ctr->perPE[p];
        if (peState[p] == 2)
          ++pc.busyCycles;
        else if (peState[p] == 1)
          ++pc.nopCycles;
        else
          ++pc.idleCycles;
      }
    }

    // -- status wire: comparisons in their last cycle --------------------------
    bool statusWire = false;
    bool statusValid = false;
    for (const InFlight& fl : inflight)
      if (fl.remaining == 1 && fl.op->emitsStatus) {
        CGRA_ASSERT_MSG(!statusValid, "two statuses in one cycle");
        statusWire = fl.status;
        statusValid = true;
      }

    // -- C-Box operation -------------------------------------------------------
    std::optional<std::pair<unsigned, bool>> condWrite;
    if (const CBoxOp* cb = cboxAt_[ccnt]) {
      if (ctr) {
        ++ctr->cboxSlotWrites;
        if (cb->inputs.size() > 1) ++ctr->cboxCombines;
      }
      bool value = cb->logic == CBoxOp::Logic::And;
      bool first = true;
      for (const CBoxOp::Input& in : cb->inputs) {
        bool v;
        if (in.kind == CBoxOp::Input::Kind::Status) {
          CGRA_ASSERT_MSG(statusValid, "C-Box consumes absent status");
          v = statusWire;
          if (ctr) ++ctr->cboxStatusReads;
        } else {
          v = condMem[in.slot] != 0;
        }
        if (!in.polarity) v = !v;
        if (first) {
          value = v;
          first = false;
        } else {
          value = cb->logic == CBoxOp::Logic::Or ? (value || v) : (value && v);
        }
      }
      condWrite = {cb->writeSlot, value};
    }

    // -- end of cycle: commits --------------------------------------------------
    for (auto it = inflight.begin(); it != inflight.end();) {
      if (--it->remaining == 0) {
        const ScheduledOp* op = it->op;
        if (op->writesDest && !it->suppressed) {
          regs[op->pe][op->destVreg] = it->result;
          if (ctr) {
            PECounters& pc = ctr->perPE[op->pe];
            ++pc.rfWrites;
            if (!touched[op->pe][op->destVreg]) {
              touched[op->pe][op->destVreg] = 1;
              ++pc.regsTouched;
            }
          }
        }
        it = inflight.erase(it);
      } else {
        ++it;
      }
    }
    if (condWrite) condMem[condWrite->first] = condWrite->second ? 1 : 0;

    ccnt = branchTaken ? branch->target : ccnt + 1;
  }

  CGRA_ASSERT_MSG(inflight.empty(), "operation still in flight at run end");

  result.runCycles = cycles;

  // Live-out transfer back to the host (Fig. 6).
  for (const LiveBinding& lb : liveOutBindings) {
    result.liveOuts[lb.var] = regs[lb.pe][lb.vreg];
    result.invocationCycles += kCyclesPerTransfer;
    if (ctr) ctr->liveOutTransferCycles += kCyclesPerTransfer;
  }
  result.invocationCycles += cycles + kInvocationOverhead;

  if (ctr) {
    ctr->cycles = cycles;
    ctr->overheadCycles = kInvocationOverhead;
    ctr->dmaLoads = result.dmaLoads;
    ctr->dmaStores = result.dmaStores;
    result.counters = std::move(countersStorage);
  }
  return result;
}

}  // namespace cgra
