// Transactional placement probes. A (node, PE) placement probe may fail
// after mutating run state — variable homes, live-in bindings, routing
// copies, C-Box condition slots. The contract (DESIGN.md) is that a
// rejected probe leaves all of it untouched: only the per-node rejection
// bookkeeping and the decision trace may record that the probe happened.
// These tests pin the contract three ways: a constructed kernel where a
// leaked home used to steer later placements, schedule-level invariants
// over the random-kernel corpus, and a white-box undo-log round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "apps/kernels.hpp"
#include "arch/factory.hpp"
#include "kir/lower_cdfg.hpp"
#include "kir/random_kernel.hpp"
#include "sched/passes/run_state.hpp"
#include "sched/scheduler.hpp"

namespace cgra {
namespace {

Node op(Op o, std::vector<Operand> operands) {
  Node n;
  n.kind = NodeKind::Operation;
  n.op = o;
  n.operands = std::move(operands);
  return n;
}

/// Three PEs in a ring with inhomogeneous op sets, parameterized by a
/// physical relabeling `perm` (role -> PE id). Roles:
///   0 "alu0": IADD but no IMUL, DMA — probed first in index order;
///   1 "alu1": IADD but no IMUL — the only PE that can read role 2;
///   2 "mul":  IMUL but no IADD.
/// Links (by role): 0->2, 2->1, 1->0, so role 2's result is routable only
/// to role 1 at the cycle it becomes ready.
Composition probeComp(const std::array<PEId, 3>& perm) {
  std::vector<PEDescriptor> pes(3);
  for (unsigned role = 0; role < 3; ++role) {
    PEDescriptor pe = PEDescriptor::fullInteger(
        role == 0 ? "alu0" : role == 1 ? "alu1" : "mul",
        /*regfileSize=*/32, /*hasDma=*/role == 0);
    pe.removeOp(role == 2 ? Op::IADD : Op::IMUL);
    pes[perm[role]] = std::move(pe);
  }
  Interconnect ic(3);
  ic.addLink(perm[0], perm[2]);
  ic.addLink(perm[2], perm[1]);
  ic.addLink(perm[1], perm[0]);
  ic.computeShortestPaths();
  return Composition("probe3", std::move(pes), std::move(ic),
                     /*contextMemoryLength=*/64, /*cboxSlots=*/4);
}

/// x (live-in) feeds n = IADD(x, m) where m = IMUL(3, 4) can only run on
/// the "mul" PE. When n is probed on "alu0" (first in index order) the
/// probe pins x's home there and then fails: m's result is not routable to
/// alu0 in time. The leaked home used to force a copy chain from alu0 and
/// bind the live-in to a PE the final schedule never uses.
struct ProbeKernel {
  Cdfg g;
  VarId x;
  NodeId m, n;
};

ProbeKernel makeProbeKernel() {
  ProbeKernel k;
  k.x = k.g.addVariable(Variable{"x", /*liveIn=*/true, false, 5});
  k.m = k.g.addNode(op(Op::IMUL, {Operand::immediate(3),
                                  Operand::immediate(4)}));
  k.n = k.g.addNode(op(Op::IADD, {Operand::variable(k.x),
                                  Operand::node(k.m)}));
  k.g.addEdge(k.m, k.n, DepKind::Flow);
  return k;
}

TEST(ProbeRollback, FailedProbeDoesNotPinHome) {
  const std::array<PEId, 3> identity{0, 1, 2};
  const Composition comp = probeComp(identity);
  const ProbeKernel k = makeProbeKernel();
  SchedulerOptions opts;
  opts.useAttraction = false;  // probe PEs in index order: alu0 first
  const ScheduleReport r =
      Scheduler(comp, opts).schedule(ScheduleRequest(k.g));
  ASSERT_TRUE(r.ok) << r.failure.message;

  // n must land on alu1 (PE 1), the only PE that can read m's result, and
  // x's home must follow it there — not stick on alu0 where the rejected
  // probe first touched it.
  const auto homeIt =
      std::find_if(r.schedule.varHomes.begin(), r.schedule.varHomes.end(),
                   [&](const LiveBinding& b) { return b.var == k.x; });
  ASSERT_NE(homeIt, r.schedule.varHomes.end());
  EXPECT_EQ(homeIt->pe, 1u);

  ASSERT_EQ(r.schedule.liveIns.size(), 1u);
  EXPECT_EQ(r.schedule.liveIns[0].var, k.x);
  EXPECT_EQ(r.schedule.liveIns[0].pe, 1u);
  EXPECT_EQ(r.schedule.liveIns[0].vreg, homeIt->vreg);

  // The leaked home used to cost a copy chain out of alu0; with rollback
  // the schedule never touches PE 0 and inserts no copies at all.
  EXPECT_EQ(r.metrics.copiesInserted, 0u);
  for (const ScheduledOp& o : r.schedule.ops) EXPECT_NE(o.pe, 0u);
}

TEST(ProbeRollback, FailureClassificationPEOrderIndependent) {
  // The same kernel on every PE relabeling of the same composition must
  // classify an unmappable run identically: rejection-reason ranks are
  // strictly distinct, so the winner cannot depend on probe order.
  const ProbeKernel k = makeProbeKernel();
  std::array<PEId, 3> perm{0, 1, 2};
  std::optional<FailureReason> expected;
  do {
    SchedulerOptions opts;
    opts.maxContexts = 3;  // too tight for IMUL + its const operands
    const ScheduleReport r =
        Scheduler(probeComp(perm), opts).schedule(ScheduleRequest(k.g));
    ASSERT_FALSE(r.ok);
    if (!expected) expected = r.failure.reason;
    EXPECT_EQ(r.failure.reason, *expected)
        << "perm " << perm[0] << perm[1] << perm[2];
  } while (std::next_permutation(perm.begin(), perm.end()));
}

Composition corpusComposition(std::uint64_t seed) {
  const unsigned idx = static_cast<unsigned>(seed % 12);
  Composition comp = idx < 6 ? makeMesh(meshSizes()[idx])
                             : makeIrregular(irregularLabels()[idx - 6]);
  return Composition(comp.name(), comp.pes(), comp.interconnect(), 1024, 64);
}

TEST(ProbeRollback, LiveInsReferenceOnlyActualHomes) {
  // Corpus-level invariant: every live-in binding must agree with the
  // variable's final home. A leaked probe home broke this by binding the
  // transfer to a PE the committed schedule never chose.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const kir::RandomKernel k = kir::generateRandomKernel(seed);
    const kir::LoweringResult lowered = kir::lowerToCdfg(k.fn);
    const Composition comp = corpusComposition(seed);
    const ScheduleReport r =
        Scheduler(comp).schedule(ScheduleRequest(lowered.graph));
    if (!r.ok) continue;
    for (const LiveBinding& in : r.schedule.liveIns) {
      const auto home = std::find_if(
          r.schedule.varHomes.begin(), r.schedule.varHomes.end(),
          [&](const LiveBinding& h) { return h.var == in.var; });
      ASSERT_NE(home, r.schedule.varHomes.end()) << "seed " << seed;
      EXPECT_EQ(in.pe, home->pe) << "seed " << seed << " var " << in.var;
      EXPECT_EQ(in.vreg, home->vreg) << "seed " << seed << " var " << in.var;
    }
    // No variable is transferred twice.
    auto ins = r.schedule.liveIns;
    std::sort(ins.begin(), ins.end(),
              [](const LiveBinding& a, const LiveBinding& b) {
                return a.var < b.var;
              });
    EXPECT_EQ(std::adjacent_find(ins.begin(), ins.end(),
                                 [](const LiveBinding& a,
                                    const LiveBinding& b) {
                                   return a.var == b.var;
                                 }),
              ins.end())
        << "seed " << seed;
  }
}

TEST(ProbeRollback, NoOrphanConditionSlots) {
  // A C-Box AND entry materialized for a fusion that was then skipped (or
  // for a probe that failed) must not survive: every combine result must be
  // read by a predicated op, a branch, or a later combine.
  struct Case {
    Composition comp;
    Cdfg graph;
  };
  const Case cases[] = {
      {makeMesh(9), kir::lowerToCdfg(apps::makeAdpcm(8, 1).fn).graph},
      {makeMesh(4), kir::lowerToCdfg(apps::makeGcd(546, 2394).fn).graph},
      {makeIrregular('D'), kir::lowerToCdfg(apps::makeGcd(546, 2394).fn).graph},
  };
  for (const Case& c : cases) {
    const ScheduleReport r =
        Scheduler(c.comp).schedule(ScheduleRequest(c.graph));
    ASSERT_TRUE(r.ok) << c.comp.name();
    for (const CBoxOp& cb : r.schedule.cboxOps) {
      if (cb.logic != CBoxOp::Logic::And) continue;
      bool referenced = false;
      for (const ScheduledOp& o : r.schedule.ops)
        if (o.pred && o.pred->slot == cb.writeSlot) referenced = true;
      for (const BranchOp& b : r.schedule.branches)
        if (b.conditional && b.pred.slot == cb.writeSlot) referenced = true;
      for (const CBoxOp& other : r.schedule.cboxOps)
        for (const CBoxOp::Input& in : other.inputs)
          if (in.kind == CBoxOp::Input::Kind::Stored &&
              in.slot == cb.writeSlot && &other != &cb)
            referenced = true;
      EXPECT_TRUE(referenced) << c.comp.name() << " slot " << cb.writeSlot;
    }
  }
}

/// True when no condition holds a materialized slot.
bool noCondSlot(const passes::RunState& st) {
  return std::none_of(st.condSlots.begin(), st.condSlots.end(),
                      [](const auto& slot) { return slot.has_value(); });
}

TEST(ProbeRollback, JournalRestoresStateExactly) {
  // White-box: every recording mutator, exercised directly against a
  // hand-initialized RunState, must be undone bit-exactly by rollback.
  const Composition comp = makeMesh(4);
  Cdfg g;
  const VarId v = g.addVariable(Variable{"v", /*liveIn=*/true, false, 0});
  g.addNode(op(Op::IADD, {Operand::variable(v), Operand::immediate(1)}));
  const SchedulerOptions opts;
  passes::RunState st(comp, opts, g, nullptr);
  st.varHomes.resize(1);
  st.varCopies.resize(1);
  st.nodeLocs.resize(1);
  st.condSlots.resize(4);
  st.nextVreg.assign(comp.numPEs(), 0);
  for (unsigned pe = 0; pe < comp.numPEs(); ++pe) {
    st.peBusy.emplace_back(16);
    st.outPort.emplace_back(16);
  }
  st.cboxOpAt = CycleOccupancy(16);
  st.predUse = CycleSlots<PredRef>(16);

  // Pre-probe committed state the rollback must preserve.
  st.markBusy(0, 0, 2);
  st.claimOutPort(1, 3, 7);
  st.claimPredSignal(2, PredRef{0, true});

  st.beginProbe();
  st.homeFor(v, 2);
  st.markBusy(0, 4, 1);
  st.claimOutPort(1, 3, 7);  // re-claim: must survive rollback
  st.claimOutPort(1, 5, 9);  // fresh claim: must be released
  st.claimPredSignal(2, PredRef{0, true});  // re-claim
  st.claimPredSignal(4, PredRef{1, false}); // fresh
  st.insertCondSlot(1, passes::CondSlot{PredRef{3, true}, 2});
  st.addLocation(Operand::node(0), passes::Location{1, 0, 3});
  st.addLocation(Operand::variable(v), passes::Location{2, 1, 4});
  st.addConstLocation(42, passes::Location{0, 2, 1});
  ScheduledOp predicated;
  predicated.pe = 3;
  predicated.start = 6;
  predicated.duration = 2;
  predicated.pred = PredRef{2, true};
  st.addOp(predicated);
  ++st.metrics.copiesInserted;
  st.rollbackProbe();

  EXPECT_FALSE(st.varHomes[v].has_value());
  EXPECT_TRUE(st.sched.liveIns.empty());
  EXPECT_TRUE(st.sched.ops.empty());
  EXPECT_EQ(st.metrics.copiesInserted, 0u);
  EXPECT_EQ(st.nextVreg[2], 0u);
  EXPECT_TRUE(st.peBusy[0].anyBusy(0, 2)) << "committed mark preserved";
  EXPECT_FALSE(st.peBusy[0].test(4)) << "probe mark cleared";
  ASSERT_NE(st.outPort[1].get(3), nullptr) << "committed claim preserved";
  EXPECT_EQ(*st.outPort[1].get(3), 7u);
  EXPECT_EQ(st.outPort[1].get(5), nullptr) << "probe claim released";
  EXPECT_NE(st.predUse.get(2), nullptr);
  EXPECT_EQ(st.predUse.get(4), nullptr);
  EXPECT_TRUE(noCondSlot(st));
  EXPECT_TRUE(st.nodeLocs[0].empty());
  EXPECT_TRUE(st.varCopies[v].empty());
  EXPECT_TRUE(st.constLocs[42].empty());
  EXPECT_FALSE(st.peBusy[3].anyBusy(6, 2)) << "addOp's busy mark cleared";
  EXPECT_EQ(st.predUse.get(6), nullptr) << "addOp's wire claim released";
  EXPECT_TRUE(st.undoLog.empty());

  // C-Box ops: the op, its slot, its write-port cycle and the condition it
  // materializes all go with a rolled-back probe.
  CBoxOp status;
  status.time = 3;
  ASSERT_EQ(st.addCBoxOp(status), 0u);
  st.beginProbe();
  CBoxOp combine;
  combine.time = 5;
  EXPECT_EQ(st.addCBoxOp(combine), 1u);
  EXPECT_TRUE(st.cboxOpAt.test(5));
  st.insertCondSlot(2, passes::CondSlot{PredRef{1, true}, 6});
  st.rollbackProbe();
  ASSERT_EQ(st.sched.cboxOps.size(), 1u);
  EXPECT_EQ(st.sched.cboxOps[0].writeSlot, 0u);
  EXPECT_EQ(st.nextCondSlot, 1u);
  EXPECT_TRUE(noCondSlot(st));
  EXPECT_TRUE(st.cboxOpAt.test(3)) << "committed C-Box op keeps its cycle";
  EXPECT_FALSE(st.cboxOpAt.test(5)) << "probe C-Box op frees its cycle";

  // A nested savepoint rolled back inside a probe that then commits undoes
  // only what came after the savepoint (the fusion path's speculative
  // condition materialization).
  st.beginProbe();
  st.markBusy(1, 8, 1);
  const passes::ProbeSavepoint inner = st.savepoint();
  EXPECT_EQ(st.addCBoxOp(combine), 1u);
  st.insertCondSlot(2, passes::CondSlot{PredRef{1, true}, 6});
  st.claimPredSignal(7, PredRef{1, true});
  st.markBusy(1, 9, 1);
  st.rollbackTo(inner);
  st.insertCondSlot(3, passes::CondSlot{PredRef{0, false}, 4});
  st.commitProbe();
  EXPECT_TRUE(st.peBusy[1].test(8)) << "outer mark committed";
  EXPECT_FALSE(st.peBusy[1].test(9)) << "inner mark undone";
  EXPECT_EQ(st.sched.cboxOps.size(), 1u);
  EXPECT_EQ(st.nextCondSlot, 1u);
  EXPECT_FALSE(st.cboxOpAt.test(5));
  EXPECT_EQ(st.predUse.get(7), nullptr);
  EXPECT_FALSE(st.condSlots[2].has_value());
  EXPECT_TRUE(st.condSlots[3].has_value()) << "post-rollback insert committed";
  EXPECT_TRUE(st.undoLog.empty());

  // A committed probe keeps everything.
  st.beginProbe();
  st.homeFor(v, 2);
  st.commitProbe();
  ASSERT_TRUE(st.varHomes[v].has_value());
  EXPECT_EQ(st.varHomes[v]->pe, 2u);
  ASSERT_EQ(st.sched.liveIns.size(), 1u);
  EXPECT_EQ(st.sched.liveIns[0].pe, 2u);
}

}  // namespace
}  // namespace cgra
