// Tests for the parallel composition-sweep engine: determinism across
// thread counts (byte-identical schedules), arch-model transparency,
// per-job failure capture, metrics aggregation/JSON shape, and simulator
// verification of a schedule produced by a parallel sweep.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>
#include <string>

#include "apps/kernels.hpp"
#include "arch/arch_model.hpp"
#include "arch/factory.hpp"
#include "kir/interp.hpp"
#include "kir/lower_cdfg.hpp"
#include "sched/sweep.hpp"
#include "sim/simulator.hpp"

namespace cgra {
namespace {

struct Domain {
  std::deque<Composition> comps;
  std::deque<std::pair<std::string, Cdfg>> graphs;
  std::vector<SweepJob> jobs;

  static Domain make() {
    Domain d;
    d.comps.push_back(makeMesh(4));
    d.comps.push_back(makeMesh(9));
    d.comps.push_back(makeIrregular('A'));
    d.graphs.emplace_back("adpcm",
                          kir::lowerToCdfg(apps::makeAdpcm(8, 1).fn).graph);
    d.graphs.emplace_back("gcd",
                          kir::lowerToCdfg(apps::makeGcd(4, 6).fn).graph);
    for (const Composition& comp : d.comps)
      for (const auto& [name, graph] : d.graphs)
        d.jobs.push_back(SweepJob{&comp, &graph, name + "@" + comp.name(),
                                  SchedulerOptions{}});
    return d;
  }
};

TEST(Sweep, DeterministicAcrossThreadCounts) {
  const Domain d = Domain::make();
  SweepOptions serial;
  serial.threads = 1;
  const SweepReport baseline = runSweep(d.jobs, serial);
  ASSERT_EQ(baseline.failures, 0u);
  ASSERT_EQ(baseline.results.size(), d.jobs.size());

  for (unsigned threads : {2u, 8u}) {
    SweepOptions opts;
    opts.threads = threads;
    const SweepReport report = runSweep(d.jobs, opts);
    EXPECT_EQ(report.threadsUsed, threads);
    ASSERT_EQ(report.failures, 0u);
    for (std::size_t i = 0; i < d.jobs.size(); ++i) {
      EXPECT_EQ(report.results[i].fingerprint, baseline.results[i].fingerprint)
          << d.jobs[i].label << " @ " << threads << " threads";
      // Fingerprints fold every schedule field, but assert the dump too so a
      // fingerprint bug cannot mask a divergence.
      EXPECT_EQ(report.results[i].schedule.toString(*d.jobs[i].comp),
                baseline.results[i].schedule.toString(*d.jobs[i].comp))
          << d.jobs[i].label << " @ " << threads << " threads";
    }
  }
}

TEST(Sweep, JsonByteStableAcrossThreadCounts) {
  // With volatile fields (threads, wall times) excluded, the full report
  // JSON must be byte-for-byte identical no matter how many worker threads
  // produced it — the property the bench regression harness relies on.
  const Domain d = Domain::make();
  SweepOptions serial;
  serial.threads = 1;
  const std::string baseline = runSweep(d.jobs, serial).toJson(false).dump();
  EXPECT_NE(baseline.find("meanStaticUtilization"), std::string::npos);
  EXPECT_EQ(baseline.find("wallTimeMs"), std::string::npos)
      << "volatile fields must be omitted from the stable form";
  EXPECT_EQ(baseline.find("\"threads\""), std::string::npos);
  for (unsigned threads : {2u, 8u}) {
    SweepOptions opts;
    opts.threads = threads;
    EXPECT_EQ(runSweep(d.jobs, opts).toJson(false).dump(), baseline)
        << "sweep JSON diverged at " << threads << " threads";
  }
}

TEST(Sweep, SharedArchModelMatchesDirectScheduling) {
  const Domain d = Domain::make();
  SweepOptions opts;
  opts.threads = 2;
  const SweepReport report = runSweep(d.jobs, opts);
  ASSERT_EQ(report.failures, 0u);
  EXPECT_EQ(report.routingCacheEntries, d.comps.size());
  for (std::size_t i = 0; i < d.jobs.size(); ++i) {
    // Direct scheduling and the sweep both read the composition's memoized
    // ArchModel. Schedules must be identical either way.
    const ScheduleReport direct =
        Scheduler(*d.jobs[i].comp).schedule(ScheduleRequest(*d.jobs[i].graph)).orThrow();
    EXPECT_EQ(direct.schedule.fingerprint(), report.results[i].fingerprint)
        << d.jobs[i].label;
  }
}

TEST(Sweep, ArchModelSharesOneEntryPerComposition) {
  const Composition comp = makeMesh(4);
  const auto a = ArchModel::get(comp);
  const auto b = ArchModel::get(comp);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(a->sinks.size(), comp.numPEs());
  EXPECT_EQ(a->connectivity.size(), comp.numPEs());
}

TEST(Sweep, RecordsFailuresWithoutAborting) {
  // One infeasible pair (IMUL kernel on a multiplier-less composition) must
  // not prevent the feasible job from completing.
  Composition base = makeMesh(4);
  std::vector<PEDescriptor> pes;
  for (PEId p = 0; p < 4; ++p) {
    PEDescriptor pe = base.pe(p);
    pe.removeOp(Op::IMUL);
    pes.push_back(std::move(pe));
  }
  const Composition noMul("noMul", std::move(pes), base.interconnect(), 256,
                          32);
  const Cdfg mulKernel = kir::lowerToCdfg(apps::makeDotProduct(4, 1).fn).graph;
  const Cdfg intKernel = kir::lowerToCdfg(apps::makeGcd(4, 6).fn).graph;

  const std::vector<SweepJob> jobs = {
      SweepJob{&noMul, &mulKernel, "dot@noMul", SchedulerOptions{}},
      SweepJob{&noMul, &intKernel, "gcd@noMul", SchedulerOptions{}},
  };
  SweepOptions opts;
  opts.threads = 2;
  const SweepReport report = runSweep(jobs, opts);
  EXPECT_EQ(report.failures, 1u);
  EXPECT_FALSE(report.results[0].ok);
  EXPECT_FALSE(report.results[0].failure.message.empty());
  EXPECT_TRUE(report.results[1].ok);
  EXPECT_EQ(report.aggregate.runs, 1u);

  // Failures are tallied by typed reason, not by string-matching messages.
  EXPECT_EQ(report.results[0].failure.reason, FailureReason::UnsupportedOp);
  EXPECT_EQ(report.failuresByReason[static_cast<std::size_t>(
                FailureReason::UnsupportedOp)],
            1u);
  const json::Value v = report.toJson();
  const json::Object& byReason =
      v.asObject().at("failuresByReason").asObject();
  ASSERT_TRUE(byReason.contains("unsupported-op"));
  EXPECT_EQ(byReason.at("unsupported-op").asInt(), 1);
  const json::Object& failedJob =
      v.asObject().at("jobs").asArray()[0].asObject();
  ASSERT_TRUE(failedJob.contains("failureReason"));
  EXPECT_EQ(failedJob.at("failureReason").asString(), "unsupported-op");
}

TEST(Sweep, AggregatesMetricsAndExportsJson) {
  const Domain d = Domain::make();
  SweepOptions opts;
  opts.threads = 2;
  opts.keepSchedules = false;
  const SweepReport report = runSweep(d.jobs, opts);
  ASSERT_EQ(report.failures, 0u);

  std::uint64_t nodes = 0;
  for (const SweepJobResult& r : report.results) {
    EXPECT_GT(r.metrics.nodesScheduled, 0u) << r.label;
    EXPECT_GT(r.metrics.candidateIterations, 0u) << r.label;
    EXPECT_GE(r.metrics.totalMs, 0.0) << r.label;
    nodes += r.metrics.nodesScheduled;
  }
  EXPECT_EQ(report.aggregate.nodesScheduled, nodes);
  EXPECT_EQ(report.aggregate.runs, d.jobs.size());

  const json::Value v = report.toJson();
  ASSERT_TRUE(v.isObject());
  const json::Object& o = v.asObject();
  for (const char* key : {"threads", "jobsTotal", "jobsFailed",
                          "routingCacheEntries", "wallTimeMs", "aggregate",
                          "jobs"})
    EXPECT_TRUE(o.contains(key)) << key;
  EXPECT_EQ(o.at("jobsTotal").asInt(),
            static_cast<std::int64_t>(d.jobs.size()));
  EXPECT_EQ(o.at("jobsFailed").asInt(), 0);
  const json::Object& agg = o.at("aggregate").asObject();
  for (const char* key : {"nodesScheduled", "copiesInserted", "cboxOps",
                          "candidateIterations", "probeRejections", "steps",
                          "runs"})
    EXPECT_TRUE(agg.contains(key)) << key;
  EXPECT_EQ(static_cast<std::uint64_t>(agg.at("nodesScheduled").asInt()),
            nodes);

  // One clock per run: the only timing keys are totalMs and the nine
  // exclusive pass self-times, and the volatile-free stable form has none.
  const auto timingKeys = [](const json::Value& v) {
    std::set<std::string> keys;
    for (const auto& [key, value] : v.asObject().at("aggregate").asObject())
      if (key.size() > 2 && key.compare(key.size() - 2, 2, "Ms") == 0)
        keys.insert(key);
    return keys;
  };
  EXPECT_EQ(timingKeys(v), (std::set<std::string>{
                               "totalMs", "passAnalysisMs", "passCandidateMs",
                               "passCostModelMs", "passPlacementMs",
                               "passRoutingMs", "passFusingMs", "passCboxMs",
                               "passLoopMs", "passFinalizeMs"}));
  EXPECT_TRUE(timingKeys(report.toJson(/*includeVolatile=*/false)).empty());

  // The pass times partition a part of each run's wall time.
  for (const SweepJobResult& r : report.results) {
    const SchedulerMetrics& m = r.metrics;
    const double passSum = m.passAnalysisMs + m.passCandidateMs +
                           m.passCostModelMs + m.passPlacementMs +
                           m.passRoutingMs + m.passFusingMs + m.passCboxMs +
                           m.passLoopMs + m.passFinalizeMs;
    EXPECT_GT(passSum, 0.0) << r.label;
    EXPECT_LE(passSum, m.totalMs) << r.label;
  }
}

TEST(Sweep, ParallelScheduleSimulatesCorrectly) {
  // End-to-end: a schedule produced inside a multi-threaded sweep must drive
  // the simulator to the same memory state as the reference interpreter.
  const apps::Workload w = apps::makeAdpcm(16, 1);
  const Cdfg graph = kir::lowerToCdfg(w.fn).graph;
  const Composition comp = makeMesh(9);
  const std::vector<SweepJob> jobs = {
      SweepJob{&comp, &graph, "adpcm@mesh9", SchedulerOptions{}}};
  SweepOptions opts;
  opts.threads = 4;
  const SweepReport report = runSweep(jobs, opts);
  ASSERT_EQ(report.failures, 0u);
  const Schedule& schedule = report.results[0].schedule;

  HostMemory goldenHeap = w.heap;
  kir::Interpreter interp;
  interp.run(w.fn, w.initialLocals, goldenHeap);

  std::map<VarId, std::int32_t> liveIns;
  for (const LiveBinding& lb : schedule.liveIns)
    liveIns[lb.var] = w.initialLocals[lb.var];
  HostMemory heap = w.heap;
  Simulator(comp, schedule).run(liveIns, heap);
  EXPECT_TRUE(heap == goldenHeap);
}

TEST(Sweep, DeduplicatesIdenticalJobsWithinOneSweep) {
  // Four copies of one job plus one job with different options: the engine
  // schedules each distinct cache key once and copies the result to the
  // duplicates, preserving per-job labels and job order.
  const Composition comp = makeMesh(4);
  const Cdfg graph = kir::lowerToCdfg(apps::makeGcd(4, 6).fn).graph;
  std::vector<SweepJob> jobs;
  for (int i = 0; i < 4; ++i)
    jobs.push_back(
        SweepJob{&comp, &graph, "gcd#" + std::to_string(i), SchedulerOptions{}});
  SchedulerOptions variant;
  variant.longestPathPriority = false;
  jobs.push_back(SweepJob{&comp, &graph, "gcd-variant", variant});

  SweepOptions opts;
  opts.threads = 2;
  const SweepReport report = runSweep(jobs, opts);
  ASSERT_EQ(report.results.size(), 5u);
  ASSERT_EQ(report.failures, 0u);
  EXPECT_EQ(report.dedupedJobs, 3u);

  EXPECT_FALSE(report.results[0].fromCache);
  for (int i = 1; i < 4; ++i) {
    EXPECT_TRUE(report.results[i].fromCache) << i;
    EXPECT_EQ(report.results[i].cacheKey, report.results[0].cacheKey);
    EXPECT_EQ(report.results[i].fingerprint, report.results[0].fingerprint);
    EXPECT_EQ(report.results[i].label, "gcd#" + std::to_string(i))
        << "copied results keep their own label";
  }
  // Different options → different key → scheduled independently.
  EXPECT_FALSE(report.results[4].fromCache);
  EXPECT_NE(report.results[4].cacheKey, report.results[0].cacheKey);

  // dedupedJobs is deterministic for a job list, so the stable JSON form
  // carries it.
  const std::string stable = report.toJson(false).dump();
  EXPECT_NE(stable.find("\"dedupedJobs\": 3"), std::string::npos) << stable;
}

TEST(Sweep, DedupMatchesIndependentScheduling) {
  // A sweep with duplicates must report exactly what a duplicate-free sweep
  // reports for the same distinct jobs — dedup is a pure optimization.
  const Domain d = Domain::make();
  std::vector<SweepJob> doubled = d.jobs;
  doubled.insert(doubled.end(), d.jobs.begin(), d.jobs.end());

  SweepOptions opts;
  opts.threads = 2;
  const SweepReport unique = runSweep(d.jobs, opts);
  const SweepReport report = runSweep(doubled, opts);
  ASSERT_EQ(report.failures, 0u);
  EXPECT_EQ(report.dedupedJobs, d.jobs.size());
  for (std::size_t i = 0; i < d.jobs.size(); ++i) {
    const SweepJobResult& copy = report.results[d.jobs.size() + i];
    EXPECT_EQ(copy.fingerprint, unique.results[i].fingerprint);
    EXPECT_EQ(copy.cacheKey, unique.results[i].cacheKey);
    EXPECT_EQ(copy.schedule.toString(*d.jobs[i].comp),
              unique.results[i].schedule.toString(*d.jobs[i].comp));
  }
}

}  // namespace
}  // namespace cgra
