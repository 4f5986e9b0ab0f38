// Tests for the observability report layer: static schedule-quality metrics
// (sched/metrics), the combined static+runtime Report with its derived
// accessors and JSON/CSV exports (sim/report), deterministic key ordering
// (json::sortKeys), and the ASCII utilization heatmap.
#include <gtest/gtest.h>

#include "apps/kernels.hpp"
#include "arch/factory.hpp"
#include "kir/lower_cdfg.hpp"
#include "sched/scheduler.hpp"
#include "sim/report.hpp"

namespace cgra {
namespace {

/// Schedules + simulates GCD on a 4-PE mesh with counters on.
struct Fixture {
  Composition comp;
  ScheduleReport report;
  SimResult sim;

  static Fixture make() {
    Fixture f{makeMesh(4), {}, {}};
    const apps::Workload w = apps::makeGcd(12, 18);
    const Cdfg graph = kir::lowerToCdfg(w.fn).graph;
    f.report = Scheduler(f.comp).schedule(ScheduleRequest(graph)).orThrow();
    std::map<VarId, std::int32_t> liveIns;
    for (const LiveBinding& lb : f.report.schedule.liveIns)
      liveIns[lb.var] = w.initialLocals.at(lb.var);
    HostMemory heap = w.heap;
    SimOptions opts;
    opts.collectCounters = true;
    f.sim = Simulator(f.comp, f.report.schedule).run(liveIns, heap, opts);
    return f;
  }
};

TEST(ScheduleQualityTest, ShapeMetricsAreConsistent) {
  const Fixture f = Fixture::make();
  const ScheduleQuality q =
      computeScheduleQuality(f.report.schedule, f.comp, &f.report.metrics);
  EXPECT_EQ(q.length, f.report.schedule.length);
  EXPECT_EQ(q.numPEs, f.comp.numPEs());
  ASSERT_EQ(q.perPE.size(), f.comp.numPEs());
  EXPECT_EQ(q.totalOps, f.report.schedule.ops.size());
  EXPECT_GT(q.totalOps, 0u);
  EXPECT_GT(q.staticUtilization, 0.0);
  EXPECT_LE(q.staticUtilization, 1.0);
  EXPECT_GT(q.contextOccupancy, 0.0);
  EXPECT_LE(q.contextOccupancy, 1.0);
  double utilSum = 0.0;
  unsigned ops = 0, inserted = 0;
  bool sawZeroSlack = false;
  for (const PEQuality& pe : q.perPE) {
    EXPECT_LE(pe.busyCycles, q.length);
    EXPECT_DOUBLE_EQ(pe.utilization,
                     static_cast<double>(pe.busyCycles) / q.length);
    utilSum += pe.utilization;
    ops += pe.opsIssued;
    inserted += pe.insertedOps;
    if (pe.slack == 0) sawZeroSlack = true;
  }
  EXPECT_DOUBLE_EQ(q.staticUtilization, utilSum / q.numPEs);
  EXPECT_EQ(ops, q.totalOps);
  EXPECT_EQ(inserted, q.insertedOps);
  EXPECT_TRUE(sawZeroSlack) << "some PE must bound the schedule";
  EXPECT_DOUBLE_EQ(q.copyRatio,
                   static_cast<double>(q.insertedOps) / q.totalOps);
}

TEST(ReportTest, RuntimeAccessorsDeriveFromCounters) {
  const Fixture f = Fixture::make();
  const Report r =
      makeReport(f.report.schedule, f.comp, &f.report.metrics, &f.sim);
  ASSERT_TRUE(r.hasRuntime);
  ASSERT_TRUE(r.counters.has_value());
  EXPECT_EQ(r.runCycles, f.sim.runCycles);

  // achievedUtilization == sum(busy) / (numPEs * runCycles), and the per-PE
  // view must average back to it.
  std::uint64_t busy = 0;
  double perPeSum = 0.0;
  for (PEId pe = 0; pe < f.comp.numPEs(); ++pe) {
    busy += r.counters->perPE[pe].busyCycles;
    perPeSum += r.peUtilization(pe);
  }
  const double expected =
      static_cast<double>(busy) /
      (static_cast<double>(f.comp.numPEs()) * f.sim.runCycles);
  EXPECT_DOUBLE_EQ(r.achievedUtilization(), expected);
  EXPECT_NEAR(perPeSum / f.comp.numPEs(), r.achievedUtilization(), 1e-12);
  EXPECT_GE(r.squashRate(), 0.0);
  EXPECT_LT(r.squashRate(), 1.0);
  EXPECT_GT(r.cyclesPerOp(), 0.0);
}

TEST(ReportTest, StaticOnlyReportFallsBackToStaticUtilization) {
  const Fixture f = Fixture::make();
  const Report r = makeReport(f.report.schedule, f.comp, &f.report.metrics);
  EXPECT_FALSE(r.hasRuntime);
  EXPECT_FALSE(r.counters.has_value());
  EXPECT_DOUBLE_EQ(r.achievedUtilization(), r.staticUtilization());
  EXPECT_DOUBLE_EQ(r.squashRate(), 0.0);
  EXPECT_FALSE(r.toJson().asObject().contains("runtime"))
      << "static-only report must not fabricate a runtime section";
}

TEST(ReportTest, JsonIsKeySortedAndByteStable) {
  const Fixture f = Fixture::make();
  const Report r =
      makeReport(f.report.schedule, f.comp, &f.report.metrics, &f.sim);
  const std::string dump = r.toJson().dump();
  EXPECT_EQ(dump, r.toJson().dump());
  // Spot-check lexicographic top-level order: "runtime" < "schedule".
  EXPECT_LT(dump.find("\"runtime\""), dump.find("\"schedule\""));
  // sortKeys orders nested objects too (Object preserves insertion order).
  json::Object inner;
  inner["b"] = 2;
  inner["a"] = 3;
  json::Object obj;
  obj["zebra"] = 1;
  obj["alpha"] = std::move(inner);
  EXPECT_EQ(json::sortKeys(json::Value(std::move(obj))).dump(0),
            "{\"alpha\":{\"a\":3,\"b\":2},\"zebra\":1}");
}

TEST(ReportTest, CsvHasOneRowPerPE) {
  const Fixture f = Fixture::make();
  const Report r =
      makeReport(f.report.schedule, f.comp, &f.report.metrics, &f.sim);
  const std::string csv = r.toCsv();
  EXPECT_EQ(csv.compare(0, 3, "pe,"), 0);
  std::size_t rows = 0;
  for (char ch : csv)
    if (ch == '\n') ++rows;
  EXPECT_EQ(rows, 1u + f.comp.numPEs()) << "header plus one row per PE";
}

TEST(HeatmapTest, OneRowPerPEAndBoundedWidth) {
  const Fixture f = Fixture::make();
  const std::string map =
      utilizationHeatmap(f.report.schedule, f.comp,
                         &*f.sim.counters, 16);
  std::size_t rows = 0;
  for (char ch : map)
    if (ch == '\n') ++rows;
  EXPECT_GE(rows, static_cast<std::size_t>(f.comp.numPEs()));
  EXPECT_NE(map.find("PE0"), std::string::npos);
  // Runtime weighting must differ from the static view for a loop kernel:
  // the loop body dominates execution but not the context memory.
  const std::string staticMap =
      utilizationHeatmap(f.report.schedule, f.comp, nullptr, 16);
  EXPECT_NE(map, staticMap);
}

}  // namespace
}  // namespace cgra
