// Unit tests for context generation: left-edge register allocation with
// loop-extended lifetimes (§V-I), capacity errors, bit-level encode/decode
// round trips and simulation equivalence of decoded images.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <set>

#include "apps/kernels.hpp"
#include "arch/factory.hpp"
#include "ctx/contexts.hpp"
#include "kir/interp.hpp"
#include "kir/lower_cdfg.hpp"
#include "kir/parser.hpp"
#include "kir/passes/pipeline.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"

namespace cgra {
namespace {

struct Prepared {
  apps::Workload workload;
  Cdfg graph;
  Composition comp;
  Schedule schedule;
};

Prepared prepare(apps::Workload w, Composition comp) {
  kir::LoweringResult lowered = kir::lowerToCdfg(w.fn);
  const Scheduler scheduler(comp);
  Schedule sched = scheduler.schedule(ScheduleRequest(lowered.graph)).orThrow().schedule;
  return Prepared{std::move(w), std::move(lowered.graph), std::move(comp),
                  std::move(sched)};
}

TEST(RegAlloc, CompactsVirtualRegisters) {
  const Prepared p = prepare(apps::makeAdpcm(8, 1), makeMesh(9));
  const RegAllocation alloc = allocateRegisters(p.schedule, p.comp);
  // Left edge must not use more physical than virtual registers, and for a
  // kernel with many short-lived temporaries it should use strictly fewer.
  unsigned virtTotal = 0, physTotal = 0;
  for (PEId pe = 0; pe < p.comp.numPEs(); ++pe) {
    EXPECT_LE(alloc.physRegsUsed[pe], p.schedule.vregsPerPE[pe]);
    virtTotal += p.schedule.vregsPerPE[pe];
    physTotal += alloc.physRegsUsed[pe];
  }
  EXPECT_LT(physTotal, virtTotal);
  EXPECT_LE(alloc.cboxSlotsUsed, p.schedule.cboxSlotsUsed);
  EXPECT_GT(alloc.maxRfEntries(), 0u);
}

TEST(RegAlloc, ThrowsWhenRegisterFileTooSmall) {
  FactoryOptions opts;
  opts.regfileSize = 4;  // minimum allowed, too small for ADPCM
  const Prepared p = prepare(apps::makeAdpcm(8, 1), makeMesh(4, opts));
  EXPECT_THROW(allocateRegisters(p.schedule, p.comp), Error);
}

TEST(RegAlloc, ThrowsWhenCBoxTooSmall) {
  FactoryOptions opts;
  opts.cboxSlots = 2;  // "limits the maximum number of parallel branches"
  const Prepared p = prepare(apps::makeAdpcm(8, 1), makeMesh(4, opts));
  EXPECT_THROW(allocateRegisters(p.schedule, p.comp), Error);
}

TEST(RegAlloc, AllocatedScheduleStillSimulatesCorrectly) {
  // The decisive lifetime test: after compaction (including loop-extended
  // lifetimes) the physical schedule must produce bit-identical results.
  for (const apps::Workload& w : apps::allWorkloads()) {
    const Prepared p = prepare(w, makeMesh(8));
    const RegAllocation alloc = allocateRegisters(p.schedule, p.comp);
    const Schedule phys = applyAllocation(p.schedule, alloc);

    HostMemory goldenHeap = w.heap;
    kir::Interpreter interp;
    const auto golden = interp.run(w.fn, w.initialLocals, goldenHeap);

    std::map<VarId, std::int32_t> liveIns;
    for (const LiveBinding& lb : phys.liveIns)
      liveIns[lb.var] = w.initialLocals[lb.var];
    HostMemory heap = w.heap;
    const SimResult r = Simulator(p.comp, phys).run(liveIns, heap);
    EXPECT_TRUE(heap == goldenHeap) << w.name;
    for (const auto& [var, value] : r.liveOuts)
      EXPECT_EQ(value, golden.locals[var]) << w.name;
  }
}

TEST(RegAlloc, LoopExtendedLifetimePreventsFalseReuse) {
  // A value written before a loop and read inside it must survive the whole
  // loop even though its last textual read is early in the interval.
  const Prepared p = prepare(apps::makeConditionalHalving(6, 3), makeMesh(4));
  const RegAllocation alloc = allocateRegisters(p.schedule, p.comp);
  const Schedule phys = applyAllocation(p.schedule, alloc);

  // Simulation equivalence is the proof.
  HostMemory goldenHeap = p.workload.heap;
  kir::Interpreter interp;
  const auto golden =
      interp.run(p.workload.fn, p.workload.initialLocals, goldenHeap);
  std::map<VarId, std::int32_t> liveIns;
  for (const LiveBinding& lb : phys.liveIns)
    liveIns[lb.var] = p.workload.initialLocals[lb.var];
  HostMemory heap = p.workload.heap;
  const SimResult r = Simulator(p.comp, phys).run(liveIns, heap);
  for (const auto& [var, value] : r.liveOuts)
    EXPECT_EQ(value, golden.locals[var]);
}

/// Decodes the images of `virt` and compares every encoded field of every
/// PE op, C-Box op and branch with the register-allocated schedule.
void expectFieldLevelRoundTrip(const Schedule& virt, const Composition& comp) {
  const Schedule phys = applyAllocation(virt, allocateRegisters(virt, comp));
  const Schedule dec = decodeContexts(generateContexts(virt, comp), comp);

  EXPECT_EQ(dec.length, phys.length);
  EXPECT_EQ(dec.liveIns.size(), phys.liveIns.size());
  EXPECT_EQ(dec.liveOuts.size(), phys.liveOuts.size());

  ASSERT_EQ(dec.ops.size(), phys.ops.size());
  std::map<std::pair<PEId, unsigned>, const ScheduledOp*> physOps;
  for (const ScheduledOp& op : phys.ops) physOps[{op.pe, op.start}] = &op;
  for (const ScheduledOp& op : dec.ops) {
    const auto it = physOps.find({op.pe, op.start});
    ASSERT_NE(it, physOps.end());
    const ScheduledOp& ref = *it->second;
    EXPECT_EQ(op.op, ref.op);
    EXPECT_EQ(op.duration, ref.duration);
    EXPECT_EQ(op.writesDest, ref.writesDest);
    if (op.writesDest) {
      EXPECT_EQ(op.destVreg, ref.destVreg);
    }
    EXPECT_EQ(op.pred, ref.pred);
    for (unsigned i = 0; i < operandCount(op.op); ++i) {
      EXPECT_EQ(op.src[i].kind, ref.src[i].kind);
      if (op.src[i].kind == OperandSource::Kind::Own) {
        EXPECT_EQ(op.src[i].vreg, ref.src[i].vreg);
      }
      if (op.src[i].kind == OperandSource::Kind::Route) {
        EXPECT_EQ(op.src[i].srcPE, ref.src[i].srcPE);
        EXPECT_EQ(op.src[i].vreg, ref.src[i].vreg);
      }
      if (op.src[i].kind == OperandSource::Kind::Imm) {
        EXPECT_EQ(op.src[i].imm, ref.src[i].imm);
      }
    }
  }

  ASSERT_EQ(dec.cboxOps.size(), phys.cboxOps.size());
  std::map<unsigned, const CBoxOp*> physCBox;
  for (const CBoxOp& op : phys.cboxOps) physCBox[op.time] = &op;
  for (const CBoxOp& op : dec.cboxOps) {
    const auto it = physCBox.find(op.time);
    ASSERT_NE(it, physCBox.end());
    const CBoxOp& ref = *it->second;
    EXPECT_EQ(op.logic, ref.logic);
    EXPECT_EQ(op.writeSlot, ref.writeSlot);
    ASSERT_EQ(op.inputs.size(), ref.inputs.size());
    for (std::size_t i = 0; i < op.inputs.size(); ++i) {
      EXPECT_EQ(op.inputs[i].kind, ref.inputs[i].kind);
      if (op.inputs[i].kind == CBoxOp::Input::Kind::Stored) {
        EXPECT_EQ(op.inputs[i].slot, ref.inputs[i].slot);
      }
      EXPECT_EQ(op.inputs[i].polarity, ref.inputs[i].polarity);
    }
  }

  ASSERT_EQ(dec.branches.size(), phys.branches.size());
  std::map<unsigned, const BranchOp*> physBranches;
  for (const BranchOp& b : phys.branches) physBranches[b.time] = &b;
  for (const BranchOp& b : dec.branches) {
    const auto it = physBranches.find(b.time);
    ASSERT_NE(it, physBranches.end());
    EXPECT_EQ(b.target, it->second->target);
    EXPECT_EQ(b.conditional, it->second->conditional);
    if (b.conditional) {
      EXPECT_EQ(b.pred, it->second->pred);
    }
  }
}

TEST(Contexts, EncodeDecodeRoundTripFieldLevel) {
  // Every bundled kernel (apps::allWorkloads() and examples/kernels/*.kir)
  // on the 12 paper compositions at unroll 1 and 2.
  std::vector<std::pair<std::string, kir::Function>> kernels;
  for (apps::Workload& w : apps::allWorkloads())
    kernels.emplace_back(w.name, std::move(w.fn));
  for (const auto& entry : std::filesystem::directory_iterator(CGRA_KERNEL_DIR))
    if (entry.path().extension() == ".kir")
      kernels.emplace_back(entry.path().filename().string(),
                           kir::parseKernelFile(entry.path().string()));
  std::vector<Composition> comps;
  for (unsigned n : meshSizes()) comps.push_back(makeMesh(n));
  for (char c : irregularLabels()) comps.push_back(makeIrregular(c));

  for (const auto& [name, fn] : kernels)
    for (unsigned unroll : {1u, 2u}) {
      kir::FrontendOptions fo;
      fo.unrollFactor = unroll;
      const Cdfg graph =
          kir::lowerToCdfg(kir::runFrontendPipeline(fn, fo).fn).graph;
      for (const Composition& comp : comps) {
        SCOPED_TRACE(name + " " + comp.name() + " u" + std::to_string(unroll));
        const ScheduleReport report =
            Scheduler(comp).schedule(ScheduleRequest(graph));
        ASSERT_TRUE(report.ok);  // every bundled pair maps
        expectFieldLevelRoundTrip(report.schedule, comp);
      }
    }
}

TEST(Contexts, NegativeImmediatesSurviveEncoding) {
  {
    kir::FunctionBuilder b("neg");
    const auto x = b.param("x");
    const auto r = b.localVar("r");
    const kir::Function fn = b.finish(b.block({
        b.assign(r, b.add(b.use(x), b.cint(-32768))),
    }));
    kir::LoweringResult lowered = kir::lowerToCdfg(fn);
    const Composition comp = makeMesh(4);
    const Schedule sched = Scheduler(comp).schedule(ScheduleRequest(lowered.graph)).orThrow().schedule;
    const ContextImages img = generateContexts(sched, comp);
    const Schedule dec = decodeContexts(img, comp);
    std::map<VarId, std::int32_t> liveIns;
    for (const LiveBinding& lb : dec.liveIns) liveIns[lb.var] = 100000;
    HostMemory heap;
    const SimResult result = Simulator(comp, dec).run(liveIns, heap);
    EXPECT_EQ(result.liveOuts.at(lowered.localToVar[r]), 100000 - 32768);
  }
}

TEST(Contexts, WidthsAreMinimizedPerPE) {
  const Prepared p = prepare(apps::makeDotProduct(6, 1), makeMesh(6));
  const ContextImages img = generateContexts(p.schedule, p.comp);
  ASSERT_EQ(img.pes.size(), p.comp.numPEs());
  for (const ContextMemory& mem : img.pes) {
    EXPECT_GE(mem.width, 1u);
    // Idle-heavy PEs still pad to their own widest context, never wider
    // than a generous bound (op+3 operands with imm+dest+pred < 128 bits).
    EXPECT_LT(mem.width, 128u);
    for (const BitVector& ctx : mem.words) EXPECT_EQ(ctx.size(), mem.width);
  }
  EXPECT_GT(img.totalBits(), 0u);
}

TEST(Contexts, GenerateRejectsOverlongSchedules) {
  FactoryOptions opts;
  opts.contextMemoryLength = 256;
  const Prepared p = prepare(apps::makeAdpcm(8, 1), makeMesh(4, opts));
  Schedule tooLong = p.schedule;
  tooLong.length = 257;
  EXPECT_THROW(generateContexts(tooLong, p.comp), Error);
}

TEST(Contexts, DecodedImagesSimulateIdentically) {
  for (char c : irregularLabels()) {
    const Composition comp = makeIrregular(c);
    const Prepared p = prepare(apps::makeBubbleSort(6, 2), comp);
    const ContextImages img = generateContexts(p.schedule, p.comp);
    const Schedule dec = decodeContexts(img, p.comp);

    HostMemory goldenHeap = p.workload.heap;
    kir::Interpreter interp;
    interp.run(p.workload.fn, p.workload.initialLocals, goldenHeap);

    std::map<VarId, std::int32_t> liveIns;
    for (const LiveBinding& lb : dec.liveIns)
      liveIns[lb.var] = p.workload.initialLocals[lb.var];
    HostMemory heap = p.workload.heap;
    Simulator(p.comp, dec).run(liveIns, heap);
    EXPECT_TRUE(heap == goldenHeap) << "composition " << c;
  }
}


TEST(RegAlloc, SuppressedHomeWriteDoesNotLeakReusedRegister) {
  // Regression (found by random-composition property testing): a live-out
  // variable whose only writes are predicated OFF must read back its
  // initial zero — the home register may not be reused by e.g. a constant
  // before the (suppressed) first write.
  kir::FunctionBuilder b("suppressed");
  const auto a = b.param("a");
  const auto out = b.localVar("out");
  const auto t = b.localVar("t");
  const kir::Function fn = b.finish(b.block({
      // Condition false for a >= 0: the branch never commits.
      b.ifElse(b.lt(b.use(a), b.cint(0)),
               b.block({
                   b.assign(out, b.cint(1)),
                   b.assign(t, b.add(b.use(a), b.cint(123))),
                   b.assign(out, b.add(b.use(out), b.use(t))),
               })),
  }));
  kir::LoweringResult lowered = kir::lowerToCdfg(fn);
  const Composition comp = makeMesh(4);
  const Schedule sched = Scheduler(comp).schedule(ScheduleRequest(lowered.graph)).orThrow().schedule;
  const Schedule runnable = decodeContexts(generateContexts(sched, comp), comp);

  std::map<VarId, std::int32_t> liveIns;
  for (const LiveBinding& lb : runnable.liveIns) liveIns[lb.var] = 5;
  HostMemory heap;
  const SimResult r = Simulator(comp, runnable).run(liveIns, heap);
  EXPECT_EQ(r.liveOuts.at(lowered.localToVar[out]), 0)
      << "suppressed writes must leave the home register untouched";
  EXPECT_EQ(r.liveOuts.at(lowered.localToVar[t]), 0);
}

TEST(RegAlloc, VarHomesArePinnedAndDistinct) {
  const Prepared p = prepare(apps::makeAdpcm(8, 1), makeMesh(4));
  const RegAllocation alloc = allocateRegisters(p.schedule, p.comp);
  const Schedule phys = applyAllocation(p.schedule, alloc);
  std::set<std::pair<PEId, unsigned>> homes;
  for (const LiveBinding& lb : phys.varHomes)
    EXPECT_TRUE(homes.insert({lb.pe, lb.vreg}).second)
        << "two homes share a register";
}

}  // namespace
}  // namespace cgra
