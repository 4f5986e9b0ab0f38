// Tests for schedule analysis: utilization accounting (ScheduleQuality),
// Gantt rendering, and the MII lower bounds (ResMII/RecMII) that quantify modulo-scheduling
// headroom (paper §VII future work).
#include <gtest/gtest.h>

#include "apps/kernels.hpp"
#include "arch/factory.hpp"
#include "kir/lower_cdfg.hpp"
#include "sched/analysis.hpp"
#include "sched/metrics.hpp"
#include "sched/scheduler.hpp"

namespace cgra {
namespace {

struct Prepared {
  Cdfg graph;
  Composition comp;
  Schedule schedule;
};

Prepared prepare(const apps::Workload& w, Composition comp) {
  kir::LoweringResult lowered = kir::lowerToCdfg(w.fn);
  Schedule sched = Scheduler(comp).schedule(ScheduleRequest(lowered.graph)).orThrow().schedule;
  return Prepared{std::move(lowered.graph), std::move(comp), std::move(sched)};
}

TEST(Analysis, UtilizationAccountingIsConsistent) {
  const Prepared p = prepare(apps::makeAdpcm(8, 1), makeMesh(4));
  const ScheduleQuality q = computeScheduleQuality(p.schedule, p.comp);

  ASSERT_EQ(q.perPE.size(), 4u);
  unsigned busySum = 0, opSum = 0;
  for (const PEQuality& pe : q.perPE) {
    EXPECT_LE(pe.utilization, 1.0);
    EXPECT_GE(pe.utilization, 0.0);
    busySum += pe.busyCycles;
    opSum += pe.opsIssued;
  }
  EXPECT_EQ(opSum, q.totalOps);
  EXPECT_EQ(q.totalOps, p.schedule.ops.size());
  EXPECT_GE(q.peakParallelism, 1u);
  EXPECT_LE(q.peakParallelism, 4u);
  EXPECT_NEAR(q.staticUtilization,
              static_cast<double>(busySum) / (4.0 * p.schedule.length), 1e-9);
  EXPECT_EQ(q.cboxBusyCycles, p.schedule.cboxOps.size());
}

TEST(Analysis, BiggerArraysLowerAverageUtilization) {
  const apps::Workload w = apps::makeAdpcm(8, 1);
  const Prepared small = prepare(w, makeMesh(4));
  const Prepared large = prepare(w, makeMesh(16));
  EXPECT_GT(computeScheduleQuality(small.schedule, small.comp).staticUtilization,
            computeScheduleQuality(large.schedule, large.comp).staticUtilization);
}

TEST(Analysis, GanttChartShape) {
  const Prepared p = prepare(apps::makeGcd(9, 6), makeMesh(4));
  const std::string gantt = ganttChart(p.schedule, p.comp);
  // One row per PE + CBOX + CCU + one per loop.
  const std::size_t rows = std::count(gantt.begin(), gantt.end(), '\n');
  EXPECT_EQ(rows, 4u + 2u + p.schedule.loops.size());
  EXPECT_NE(gantt.find('^'), std::string::npos) << "back-branch marker";
  EXPECT_NE(gantt.find('?'), std::string::npos) << "comparison marker";
  EXPECT_NE(gantt.find('['), std::string::npos) << "loop interval";
  // Row width = schedule length (between the pipes).
  const std::size_t firstPipe = gantt.find('|');
  const std::size_t secondPipe = gantt.find('|', firstPipe + 1);
  EXPECT_EQ(secondPipe - firstPipe - 1, p.schedule.length);
}

TEST(Analysis, GanttMarksPredicationAndMultiCycle) {
  const Prepared p = prepare(apps::makeDotProduct(6, 1), makeMesh(4));
  const std::string gantt = ganttChart(p.schedule, p.comp);
  EXPECT_NE(gantt.find('-'), std::string::npos) << "2-cycle multiplier tail";
  // Predicated commits are uppercase (the loop body writes are predicated).
  EXPECT_TRUE(gantt.find('C') != std::string::npos ||
              gantt.find('A') != std::string::npos ||
              gantt.find('D') != std::string::npos);
}

TEST(Mii, BoundsAreSaneAndBelowAchieved) {
  for (const auto& make :
       {+[] { return apps::makeAdpcm(8, 1); },
        +[] { return apps::makeFir(6, 3, 2); },
        +[] { return apps::makeMatMul(3, 3); }}) {
    const apps::Workload w = make();
    const Prepared p = prepare(w, makeMesh(8));
    const auto bounds = computeMiiBounds(p.graph, p.schedule, p.comp);
    ASSERT_EQ(bounds.size(), p.graph.numLoops() - 1) << w.name;
    for (const LoopMii& m : bounds) {
      EXPECT_GE(m.resMii, 0.0) << w.name;
      EXPECT_GE(m.recMii, 1.0) << w.name;
      EXPECT_GT(m.achievedInterval, 0u) << w.name;
      // The list schedule can never beat the lower bound.
      EXPECT_GE(static_cast<double>(m.achievedInterval) + 1e-9, m.mii())
          << w.name << " loop " << m.loop;
      EXPECT_GE(m.headroom(), 1.0 - 1e-9) << w.name;
    }
  }
}

TEST(Mii, RecurrenceBoundSeesLongChains) {
  // i = i + 1 has a 2-op recurrence (ADD, then the fused/standalone write);
  // x = ((x*3)+1) has a longer one — RecMII must rank them accordingly.
  using kir::FunctionBuilder;
  auto build = [](bool longChain) {
    FunctionBuilder b("rec");
    const auto n = b.param("n");
    const auto i = b.localVar("i");
    const auto x = b.localVar("x");
    std::vector<kir::StmtId> body{
        b.assign(i, b.add(b.use(i), b.cint(1)))};
    if (longChain)
      body.push_back(b.assign(
          x, b.add(b.mul(b.mul(b.use(x), b.cint(3)), b.cint(5)), b.cint(1))));
    return b.finish(b.block({
        b.assign(i, b.cint(0)),
        b.assign(x, b.cint(1)),
        b.whileLoop(b.lt(b.use(i), b.use(n)), b.block(std::move(body))),
    }));
  };
  const Composition comp = makeMesh(4);
  auto miiOf = [&](const kir::Function& fn) {
    kir::LoweringResult lowered = kir::lowerToCdfg(fn);
    const Schedule sched = Scheduler(comp).schedule(ScheduleRequest(lowered.graph)).orThrow().schedule;
    const auto bounds = computeMiiBounds(lowered.graph, sched, comp);
    return bounds.at(0).recMii;
  };
  EXPECT_GT(miiOf(build(true)), miiOf(build(false)));
}

TEST(Mii, ResourceBoundScalesWithArray) {
  // Memory-heavy loop: ResMII is limited by DMA ports, so a composition
  // with fewer DMA PEs has a higher bound.
  const apps::Workload w = apps::makeDotProduct(8, 1);
  kir::LoweringResult lowered = kir::lowerToCdfg(w.fn);
  const Composition few = makeMesh(4);    // 2 DMA PEs
  const Composition many = makeMesh(16);  // 4 DMA PEs
  const Schedule s1 = Scheduler(few).schedule(ScheduleRequest(lowered.graph)).orThrow().schedule;
  const Schedule s2 = Scheduler(many).schedule(ScheduleRequest(lowered.graph)).orThrow().schedule;
  const auto b1 = computeMiiBounds(lowered.graph, s1, few);
  const auto b2 = computeMiiBounds(lowered.graph, s2, many);
  EXPECT_GE(b1.at(0).resMii, b2.at(0).resMii);
}

}  // namespace
}  // namespace cgra
