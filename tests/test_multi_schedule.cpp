// Tests for multi-schedule context memories (§IV-A.3): packing several
// kernels into one shared context memory, invoking by start CCNT, register
// reuse across kernels, window isolation, and the packed-image round trip.
#include <gtest/gtest.h>

#include "apps/kernels.hpp"
#include "arch/factory.hpp"
#include "ctx/multi.hpp"
#include "kir/interp.hpp"
#include "kir/lower_cdfg.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"

namespace cgra {
namespace {

struct PackedDomain {
  std::vector<apps::Workload> workloads;
  std::vector<std::vector<VarId>> localToVar;
  Composition comp = makeMesh(6);
  PackedSchedules packed;
};

PackedDomain makeDomain() {
  PackedDomain d;
  d.workloads.push_back(apps::makeGcd(18, 12));
  d.workloads.push_back(apps::makeEwmaClip(6, 2));
  d.workloads.push_back(apps::makeDotProduct(5, 3));
  std::vector<Schedule> schedules;
  for (const apps::Workload& w : d.workloads) {
    kir::LoweringResult lowered = kir::lowerToCdfg(w.fn);
    schedules.push_back(Scheduler(d.comp).schedule(ScheduleRequest(lowered.graph)).orThrow().schedule);
    d.localToVar.push_back(std::move(lowered.localToVar));
  }
  d.packed = packSchedules(schedules, d.comp);
  return d;
}

TEST(MultiSchedule, PlacementsAreContiguousAndOrdered) {
  const PackedDomain d = makeDomain();
  ASSERT_EQ(d.packed.placements.size(), 3u);
  unsigned expectedStart = 0;
  for (const SchedulePlacement& pl : d.packed.placements) {
    EXPECT_EQ(pl.startCcnt, expectedStart);
    EXPECT_GT(pl.length, 0u);
    expectedStart += pl.length;
  }
  EXPECT_EQ(d.packed.merged.length, expectedStart);
}

TEST(MultiSchedule, RegistersAreSharedNotSummed) {
  // Packing reuses physical registers across kernels (runs never overlap):
  // the merged per-PE demand is the max, not the sum.
  const PackedDomain d = makeDomain();
  std::vector<unsigned> individualMax(d.comp.numPEs(), 0);
  unsigned individualSum = 0;
  for (const apps::Workload& w : d.workloads) {
    kir::LoweringResult lowered = kir::lowerToCdfg(w.fn);
    const Schedule s = Scheduler(d.comp).schedule(ScheduleRequest(lowered.graph)).orThrow().schedule;
    const RegAllocation alloc = allocateRegisters(s, d.comp);
    for (PEId p = 0; p < d.comp.numPEs(); ++p) {
      individualMax[p] = std::max(individualMax[p], alloc.physRegsUsed[p]);
      individualSum += alloc.physRegsUsed[p];
    }
  }
  unsigned mergedSum = 0;
  for (PEId p = 0; p < d.comp.numPEs(); ++p) {
    EXPECT_EQ(d.packed.merged.vregsPerPE[p], individualMax[p]);
    mergedSum += d.packed.merged.vregsPerPE[p];
  }
  EXPECT_LT(mergedSum, individualSum);
}

TEST(MultiSchedule, EachWindowRunsCorrectlyInAnyOrder) {
  const PackedDomain d = makeDomain();
  const Simulator sim(d.comp, d.packed.merged);

  // Invoke in reverse order — placements must be independent.
  for (std::size_t i = d.workloads.size(); i-- > 0;) {
    const apps::Workload& w = d.workloads[i];
    const SchedulePlacement& pl = d.packed.placements[i];

    HostMemory goldenHeap = w.heap;
    kir::Interpreter interp;
    const auto golden = interp.run(w.fn, w.initialLocals, goldenHeap);

    std::map<VarId, std::int32_t> liveIns;
    for (const LiveBinding& lb : pl.liveIns)
      liveIns[lb.var] = w.initialLocals[lb.var];
    HostMemory heap = w.heap;
    const SimResult r = sim.runWindow(liveIns, heap, pl.liveIns, pl.liveOuts,
                                      pl.startCcnt, pl.startCcnt + pl.length);
    EXPECT_TRUE(heap == goldenHeap) << w.name;
    for (const auto& [var, value] : r.liveOuts)
      EXPECT_EQ(value, golden.locals[var]) << w.name;
  }
}

TEST(MultiSchedule, RepeatedInvocationsOfOneWindow) {
  const PackedDomain d = makeDomain();
  const Simulator sim(d.comp, d.packed.merged);
  const SchedulePlacement& pl = d.packed.placements[0];  // gcd(18, 12)

  std::map<VarId, std::int32_t> liveIns;
  // gcd's variables: x, y at locals 0, 1.
  liveIns[d.localToVar[0][0]] = 18;
  liveIns[d.localToVar[0][1]] = 12;
  HostMemory heap;
  const SimResult r1 = sim.runWindow(liveIns, heap, pl.liveIns, pl.liveOuts,
                                     pl.startCcnt, pl.startCcnt + pl.length);
  EXPECT_EQ(r1.liveOuts.at(d.localToVar[0][0]), 6);

  liveIns[d.localToVar[0][0]] = 81;
  liveIns[d.localToVar[0][1]] = 54;
  const SimResult r2 = sim.runWindow(liveIns, heap, pl.liveIns, pl.liveOuts,
                                     pl.startCcnt, pl.startCcnt + pl.length);
  EXPECT_EQ(r2.liveOuts.at(d.localToVar[0][0]), 27);
}

TEST(MultiSchedule, PackedImagesRoundTripAndRun) {
  const PackedDomain d = makeDomain();
  const ContextImages img = encodePhysical(d.packed.merged, d.comp);
  EXPECT_EQ(img.length, d.packed.merged.length);
  const Schedule dec = decodeContexts(img, d.comp);
  const Simulator sim(d.comp, dec);

  const apps::Workload& w = d.workloads[1];  // ewma
  const SchedulePlacement& pl = d.packed.placements[1];
  HostMemory goldenHeap = w.heap;
  kir::Interpreter interp;
  interp.run(w.fn, w.initialLocals, goldenHeap);

  std::map<VarId, std::int32_t> liveIns;
  for (const LiveBinding& lb : pl.liveIns)
    liveIns[lb.var] = w.initialLocals[lb.var];
  HostMemory heap = w.heap;
  sim.runWindow(liveIns, heap, pl.liveIns, pl.liveOuts, pl.startCcnt,
                pl.startCcnt + pl.length);
  EXPECT_TRUE(heap == goldenHeap);
}

TEST(MultiSchedule, RejectsOverflowingContextMemory) {
  const Composition comp = makeMesh(4);
  std::vector<Schedule> schedules;
  unsigned total = 0;
  for (int i = 0; i < 3; ++i) {
    kir::LoweringResult lowered =
        kir::lowerToCdfg(apps::makeGcd(18, 12).fn);
    schedules.push_back(Scheduler(comp).schedule(ScheduleRequest(lowered.graph)).orThrow().schedule);
    total += schedules.back().length;
  }
  // A context memory one entry too small for the pack.
  const Composition tight("tight", comp.pes(), comp.interconnect(), total - 1,
                          comp.cboxSlots());
  EXPECT_THROW(packSchedules(schedules, tight), Error);
  EXPECT_NO_THROW(packSchedules(schedules, comp));
  EXPECT_THROW(packSchedules({}, comp), Error);
}

}  // namespace
}  // namespace cgra
