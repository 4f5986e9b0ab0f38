#include "sched/passes/placement_pass.hpp"

#include <array>
#include <cmath>
#include <string>
#include <utility>

#include "sched/passes/candidate_pass.hpp"
#include "sched/passes/cbox_pass.hpp"
#include "sched/passes/cost_model.hpp"
#include "sched/passes/fusing_pass.hpp"
#include "sched/passes/loop_pass.hpp"
#include "sched/passes/routing_pass.hpp"

namespace cgra::passes {

namespace {

bool incompatible(const ArchModel& model, const RunState& st, NodeId id,
                  PEId pe) {
  const Node& n = st.g.node(id);
  if (n.isPWrite()) {
    const auto& home = st.varHomes[n.var];
    return home && home->pe != pe;
  }
  return !model.peSupports(pe, n.op);
}

unsigned opDuration(const ArchModel& model, const RunState& st, NodeId id,
                    PEId pe) {
  const Node& n = st.g.node(id);
  const Op op = n.isPWrite()
                    ? (n.operands[0].kind() == Operand::Kind::Immediate
                           ? Op::CONST
                           : Op::MOVE)
                    : n.op;
  // Shared-model table; 0 marks unsupported, where the descriptor lookup
  // preserves the original throwing contract (reachable only for pWRITEs —
  // operations are pre-filtered by incompatible()).
  const unsigned dur = model.opDuration(pe, op);
  return dur != 0 ? dur : st.comp.pe(pe).impl(op).duration;
}

/// A committed write to `var` at finish cycle: home becomes ready, all
/// copies become stale for later readers.
void commitVarWrite(RunState& st, VarId var, unsigned finish) {
  Location& home = *st.varHomes[var];
  home.ready = std::max(home.ready, finish);
  for (Location& copy : st.varCopies[var])
    copy.validUntil = std::min(copy.validUntil, finish - 1);
}

void markScheduled(const ArchModel& model, RunState& st, NodeId id,
                   unsigned start, unsigned dur, PEId pe) {
  st.nodeScheduled[id] = true;
  st.nodeStart[id] = start;
  st.nodeFinish[id] = start + dur;
  ++st.scheduledCount;
  ++st.metrics.nodesScheduled;
  st.eraseCandidate(id);

  // Successor-affinity feedback lives in the cost model (§V-G attraction).
  st.costModel->onNodePlaced(model, st, id, pe);
  for (const Edge& e : st.g.outEdges(id))
    if (--st.remainingPreds[e.to] == 0) st.insertCandidate(e.to);
}

/// Records (and traces) one rejected (node, PE) placement probe. The
/// per-node reason feeds the typed failure classification when the run
/// eventually gives up: within one step the most informative reason wins
/// (an Incompatible on a later PE must not mask an OperandUnroutable);
/// across steps the newest step wins. Ranks are strictly distinct so the
/// winner is independent of PE iteration order: PredUnavailable ranks below
/// CBoxWritePortBusy because a missing predicate is ordinary transient
/// state (the producing CMP is simply not scheduled yet) while a busy C-Box
/// write port signals real capacity pressure (it classifies as
/// CBoxCapacity, see pipeline.cpp).
void rejectPlacement(RunState& st, NodeId id, PEId pe, TraceReject why) {
  const auto rank = [](TraceReject r) {
    switch (r) {
      case TraceReject::None: return 0;
      case TraceReject::Incompatible: return 1;
      case TraceReject::PeBusy: return 2;
      case TraceReject::PredUnavailable: return 3;
      case TraceReject::CBoxWritePortBusy: return 4;
      case TraceReject::OperandUnroutable: return 5;
    }
    CGRA_UNREACHABLE("unknown TraceReject");
  };
  if (st.lastRejectStep[id] != st.t || rank(why) >= rank(st.lastReject[id])) {
    st.lastReject[id] = why;
    st.lastRejectStep[id] = st.t;
  }
  CGRA_TRACE(st.trace, PlacementRejected, .reject = why, .cycle = st.t,
             .node = static_cast<std::int32_t>(id),
             .pe = static_cast<std::int32_t>(pe));
}

bool planOperation(const ArchModel& model, RunState& st, NodeId id, PEId pe,
                   unsigned dur) {
  const Node& n = st.g.node(id);
  const unsigned t = st.t;

  // Comparisons feed the C-Box: one status per cycle, so the C-Box write
  // port must be free on the status cycle (§V-H).
  const unsigned statusCycle = t + dur - 1;
  if (n.isStatusProducer() && st.cboxOpAt.test(statusCycle))
    return st.fail(TraceReject::CBoxWritePortBusy);

  // Memory operations are always predicated (§V-D).
  std::optional<PredRef> pred;
  if (n.isMemory() && n.cond != kCondTrue) {
    pred = ensureCondition(model, st, n.cond, t);
    if (!pred) return st.fail(TraceReject::PredUnavailable);
    if (!st.predSignalAvailable(t, *pred))
      return st.fail(TraceReject::PredUnavailable);
  }

  // Fusion: write the result directly into the variable's home register,
  // predicated on the pWRITE's condition (§V-E).
  std::optional<NodeId> fusedWriter;
  std::optional<PredRef> fusedPred;
  if (!n.isStatusProducer() && writesRegister(n.op)) {
    if (const auto writer = fusablePWrite(st, id)) {
      const Node& w = st.g.node(*writer);
      const auto& home = st.varHomes[w.var];
      const bool peOk = !home || home->pe == pe;
      // A predicated memory op may only fuse when write and access share
      // the same condition (one outPE signal gates both).
      const bool condCompatible = !n.isMemory() || n.cond == w.cond;
      if (peOk && condCompatible && pWriteDepsMet(st, *writer, id, t)) {
        bool condOk = true;
        if (w.cond != kCondTrue) {
          // Both the op's own memory predication (none here: fused ops are
          // pure ALU) and the single outPE wire must accommodate it.
          // Materializing the condition may allocate a C-Box slot; when the
          // fusion is then skipped that allocation must not outlive the
          // decision, so it runs under a savepoint.
          const ProbeSavepoint sp = st.savepoint();
          fusedPred = ensureCondition(model, st, w.cond, t);
          condOk = fusedPred && st.predSignalAvailable(t, *fusedPred);
          if (!condOk) {
            st.rollbackTo(sp);
            fusedPred.reset();
          }
        }
        if (condOk) fusedWriter = writer;
      }
    }
  }

  // Operand resolution (reads fused into this node, §V-E).
  ExposureMap exposure;
  std::array<OperandSource, 3> srcs{};
  for (std::size_t i = 0; i < n.operands.size(); ++i) {
    // Reading a variable pins its home on first use (rolled back with the
    // probe when a later operand proves unroutable).
    if (n.operands[i].kind() == Operand::Kind::Variable)
      st.homeFor(n.operands[i].varId(), pe);
    const auto src = resolveOperand(model, st, n.operands[i], pe, t, exposure);
    if (!src) return st.fail(TraceReject::OperandUnroutable);
    srcs[i] = *src;
  }

  // Commit.
  ScheduledOp op;
  op.node = id;
  op.op = n.op;
  op.pe = pe;
  op.start = t;
  op.duration = dur;
  op.src = srcs;
  op.emitsStatus = n.isStatusProducer();
  op.label = n.label;
  op.pred = pred;

  if (fusedWriter) {
    const Node& w = st.g.node(*fusedWriter);
    st.homeFor(w.var, pe);
    op.writesDest = true;
    op.destVreg = st.varHomes[w.var]->vreg;
    if (fusedPred) op.pred = fusedPred;
    ++st.metrics.fusedWrites;
    CGRA_TRACE(st.trace, WriteFused, .cycle = t,
               .node = static_cast<std::int32_t>(id),
               .pe = static_cast<std::int32_t>(pe), .a = *fusedWriter);
  } else if (writesRegister(n.op)) {
    op.writesDest = true;
    op.destVreg = st.freshVreg(pe);
    st.nodeLocs[id].push_back(Location{pe, op.destVreg, t + dur,
                                       Location::kNoLimit});
  }

  for (const auto& [srcPe, vreg] : exposure) st.claimOutPort(srcPe, t, vreg);
  st.addOp(std::move(op));
  st.stepHasOp = true;

  if (n.isStatusProducer()) allocateStatusSlot(model, st, id, statusCycle);

  markScheduled(model, st, id, t, dur, pe);
  if (fusedWriter) {
    commitVarWrite(st, st.g.node(*fusedWriter).var, t + dur);
    markScheduled(model, st, *fusedWriter, t, dur, pe);
  }
  return true;
}

bool planPWrite(const ArchModel& model, RunState& st, NodeId id, PEId pe,
                unsigned dur) {
  const Node& n = st.g.node(id);
  const unsigned t = st.t;

  std::optional<PredRef> pred;
  if (n.cond != kCondTrue) {
    pred = ensureCondition(model, st, n.cond, t);
    if (!pred) return st.fail(TraceReject::PredUnavailable);
    if (!st.predSignalAvailable(t, *pred))
      return st.fail(TraceReject::PredUnavailable);
  }

  const Operand& value = n.operands[0];
  ExposureMap exposure;
  ScheduledOp op;
  op.node = id;
  op.pe = pe;
  op.start = t;
  op.duration = dur;
  op.label = n.label;

  if (value.kind() == Operand::Kind::Immediate) {
    op.op = Op::CONST;
    op.src[0] = OperandSource{OperandSource::Kind::Imm, 0, 0, value.imm()};
  } else {
    op.op = Op::MOVE;
    if (value.kind() == Operand::Kind::Variable)
      st.homeFor(value.varId(), pe);
    const auto src = resolveOperand(model, st, value, pe, t, exposure);
    if (!src) return st.fail(TraceReject::OperandUnroutable);
    op.src[0] = *src;
  }

  st.homeFor(n.var, pe);
  CGRA_ASSERT(st.varHomes[n.var]->pe == pe);
  op.writesDest = true;
  op.destVreg = st.varHomes[n.var]->vreg;
  op.pred = pred;

  for (const auto& [srcPe, vreg] : exposure) st.claimOutPort(srcPe, t, vreg);
  st.addOp(std::move(op));
  st.stepHasOp = true;

  commitVarWrite(st, n.var, t + dur);
  markScheduled(model, st, id, t, dur, pe);
  return true;
}

bool planCandidate(const ArchModel& model, RunState& st, NodeId id, PEId pe,
                   unsigned dur) {
  const Node& n = st.g.node(id);
  if (n.isPWrite()) return planPWrite(model, st, id, pe, dur);
  return planOperation(model, st, id, pe, dur);
}

}  // namespace

void planStep(const ArchModel& model, RunState& st) {
  st.stepHasOp = false;
  bool changed = true;
  while (changed) {
    changed = false;
    for (NodeId id : candidateSnapshot(st)) {
      ++st.metrics.candidateIterations;
      if (st.nodeScheduled[id]) continue;  // fused away mid-snapshot
      if (!loopCompatible(model, st, id)) continue;
      if (st.earliestStart(id) > st.t) continue;
      CGRA_TRACE(st.trace, CandidateSelected, .cycle = st.t,
                 .node = static_cast<std::int32_t>(id),
                 .a = std::llround(st.priorities[id] * 1000.0));
      for (PEId pe : st.orderedPEs(id)) {
        if (incompatible(model, st, id, pe)) {
          rejectPlacement(st, id, pe, TraceReject::Incompatible);
          continue;
        }
        const unsigned dur = opDuration(model, st, id, pe);
        if (st.busy(pe, st.t, dur)) {
          rejectPlacement(st, id, pe, TraceReject::PeBusy);
          continue;
        }
        ++st.metrics.placementAttempts;
        st.reject = TraceReject::None;
        // The probe is transactional: planCandidate may mutate homes,
        // live-ins, routing copies and C-Box slots before discovering the
        // placement is infeasible; rollback restores all of it so the next
        // (node, PE) probe starts from pristine state.
        st.beginProbe();
        if (planCandidate(model, st, id, pe, dur)) {
          st.commitProbe();
          CGRA_TRACE(st.trace, NodePlaced, .cycle = st.t,
                     .node = static_cast<std::int32_t>(id),
                     .pe = static_cast<std::int32_t>(pe), .a = dur);
          changed = true;
          break;
        }
        st.rollbackProbe();
        rejectPlacement(st, id, pe, st.reject);
        ++st.metrics.probeRejections;
      }
    }
  }
}

}  // namespace cgra::passes
