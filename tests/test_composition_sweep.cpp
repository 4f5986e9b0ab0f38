// Integration sweep: every bundled workload on every paper composition
// (Fig. 13 meshes and Fig. 14 irregular compositions), validated and
// simulated against the interpreter — the broadest correctness matrix in
// the suite. A second sweep covers frontend-pass combinations on the
// evaluation kernel, and a third stresses capacity-constrained compositions.
#include <gtest/gtest.h>

#include "apps/kernels.hpp"
#include "arch/factory.hpp"
#include "ctx/contexts.hpp"
#include "kir/interp.hpp"
#include "kir/lower_cdfg.hpp"
#include "kir/passes/cse_pass.hpp"
#include "kir/passes/unroll_pass.hpp"
#include "sched/scheduler.hpp"
#include "sched/validate.hpp"
#include "sim/simulator.hpp"

namespace cgra {
namespace {

Composition compositionByIndex(std::size_t idx) {
  if (idx < 6) return makeMesh(meshSizes()[idx]);
  return makeIrregular(irregularLabels()[idx - 6]);
}

void runAndCompare(const apps::Workload& w, const kir::Function& fn,
                   const Composition& comp, bool viaContexts) {
  HostMemory goldenHeap = w.heap;
  kir::Interpreter interp;
  const auto golden = interp.run(fn, w.initialLocals, goldenHeap);

  const kir::LoweringResult lowered = kir::lowerToCdfg(fn);
  const ScheduleReport result = Scheduler(comp).schedule(ScheduleRequest(lowered.graph)).orThrow();
  const auto issues = verifySchedule(result.schedule, &comp, &lowered.graph);
  ASSERT_TRUE(issues.empty()) << w.name << " on " << comp.name() << ": "
                              << issues.front();

  Schedule runnable = result.schedule;
  if (viaContexts)
    runnable = decodeContexts(generateContexts(result.schedule, comp), comp);

  std::map<VarId, std::int32_t> liveIns;
  for (const LiveBinding& lb : runnable.liveIns)
    liveIns[lb.var] = w.initialLocals[lb.var];
  HostMemory heap = w.heap;
  const SimResult r = Simulator(comp, runnable).run(liveIns, heap);

  EXPECT_TRUE(heap == goldenHeap) << w.name << " on " << comp.name();
  for (const auto& [var, value] : r.liveOuts)
    EXPECT_EQ(value, golden.locals[var])
        << w.name << " on " << comp.name() << ", variable "
        << lowered.graph.variable(var).name;
}

using SweepParam = std::tuple<std::size_t, std::size_t>;  // workload, comp

class WorkloadCompositionSweep
    : public ::testing::TestWithParam<SweepParam> {};

TEST_P(WorkloadCompositionSweep, ScheduleLevel) {
  const auto [wIdx, cIdx] = GetParam();
  const auto workloads = apps::allWorkloads();
  runAndCompare(workloads[wIdx], workloads[wIdx].fn, compositionByIndex(cIdx),
                /*viaContexts=*/false);
}

TEST_P(WorkloadCompositionSweep, ContextLevel) {
  const auto [wIdx, cIdx] = GetParam();
  const auto workloads = apps::allWorkloads();
  runAndCompare(workloads[wIdx], workloads[wIdx].fn, compositionByIndex(cIdx),
                /*viaContexts=*/true);
}

std::string sweepName(const ::testing::TestParamInfo<SweepParam>& info) {
  const auto workloads = apps::allWorkloads();
  const std::size_t cIdx = std::get<1>(info.param);
  const std::string comp =
      cIdx < 6 ? "mesh" + std::to_string(meshSizes()[cIdx])
               : std::string("irr") + irregularLabels()[cIdx - 6];
  return workloads[std::get<0>(info.param)].name + "_" + comp;
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, WorkloadCompositionSweep,
    ::testing::Combine(::testing::Range<std::size_t>(0, 12),
                       ::testing::Range<std::size_t>(0, 12)),
    sweepName);

// Frontend-pass combinations on the paper's evaluation kernel.
class AdpcmPassSweep : public ::testing::TestWithParam<int> {};

TEST_P(AdpcmPassSweep, PassesComposeCorrectlyOnCgra) {
  const apps::Workload w = apps::makeAdpcm(16, 5);
  kir::Function fn = w.fn;
  switch (GetParam()) {
    case 0: break;
    case 1: fn = kir::eliminateCommonSubexpressions(fn); break;
    case 2: fn = kir::unrollLoops(fn, 2, true); break;
    case 3: fn = kir::unrollLoops(fn, 3, true); break;
    case 4:
      fn = kir::unrollLoops(kir::eliminateCommonSubexpressions(fn), 2, true);
      break;
    case 5: fn = kir::unrollLoops(fn, 2, false); break;
  }
  runAndCompare(w, fn, makeMesh(9), /*viaContexts=*/true);
}

INSTANTIATE_TEST_SUITE_P(Variants, AdpcmPassSweep, ::testing::Range(0, 6));

// Capacity-constrained compositions still produce correct (or cleanly
// rejected) results.
TEST(CapacityStress, SmallRegisterFilesStillCorrectOrRejected) {
  for (unsigned rf : {8u, 12u, 16u, 24u}) {
    FactoryOptions opts;
    opts.regfileSize = rf;
    const Composition comp = makeMesh(4, opts);
    const apps::Workload w = apps::makeAdpcm(8, 2);
    try {
      runAndCompare(w, w.fn, comp, /*viaContexts=*/true);
    } catch (const Error& e) {
      // A clean capacity error is acceptable; silent corruption is not.
      EXPECT_NE(std::string(e.what()).find("register"), std::string::npos)
          << e.what();
    }
  }
}

TEST(CapacityStress, TinyCBoxStillCorrectOrRejected) {
  for (unsigned slots : {4u, 6u, 8u}) {
    FactoryOptions opts;
    opts.cboxSlots = slots;
    const Composition comp = makeMesh(4, opts);
    const apps::Workload w = apps::makeEwmaClip(6, 3);
    try {
      runAndCompare(w, w.fn, comp, /*viaContexts=*/true);
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("C-Box"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace cgra
