// Tests for the shared immutable ArchModel: table correctness against the
// composition it was built from, digest equivalence with the job-key layer,
// per-instance memoization (copies share, distinct instances do not), the
// digest memo that keying reads without a model build (also from racing
// threads), and the headline guarantee of the pass-pipeline refactor — a
// 64-job single-composition sweep performs exactly one model build.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <thread>
#include <vector>

#include "apps/kernels.hpp"
#include "arch/arch_model.hpp"
#include "arch/factory.hpp"
#include "kir/lower_cdfg.hpp"
#include "sched/job_key.hpp"
#include "sched/sweep.hpp"

namespace cgra {
namespace {

TEST(ArchModel, TablesMatchComposition) {
  const Composition comp = makeMesh(9);
  const ArchModel model = ArchModel::build(comp);

  ASSERT_EQ(model.numPEs(), comp.numPEs());
  ASSERT_EQ(model.sinks.size(), comp.numPEs());
  ASSERT_EQ(model.sources.size(), comp.numPEs());
  ASSERT_EQ(model.connectivity.size(), comp.numPEs());
  ASSERT_EQ(model.reachCount.size(), comp.numPEs());

  for (PEId p = 0; p < comp.numPEs(); ++p) {
    // sinks/sources mirror the interconnect's directed links exactly.
    for (PEId q = 0; q < comp.numPEs(); ++q) {
      const bool link = comp.interconnect().hasLink(p, q);
      const bool inSinks =
          std::find(model.sinks[p].begin(), model.sinks[p].end(), q) !=
          model.sinks[p].end();
      const bool inSources =
          std::find(model.sources[q].begin(), model.sources[q].end(), p) !=
          model.sources[q].end();
      EXPECT_EQ(link, inSinks) << "pe " << p << " -> " << q;
      EXPECT_EQ(link, inSources) << "pe " << p << " -> " << q;
    }
    EXPECT_EQ(model.connectivity[p],
              model.sinks[p].size() + model.sources[p].size());
    EXPECT_EQ(model.peHasDma[p], comp.pe(p).hasDma());
  }

  EXPECT_EQ(model.dmaPEs, comp.dmaPEs());
  EXPECT_EQ(model.cboxSlots, comp.cboxSlots());
  EXPECT_EQ(model.contextMemoryLength, comp.contextMemoryLength());
  for (unsigned op = 0; op < kNumOps; ++op)
    EXPECT_EQ(model.supportingPEs[op],
              comp.pesSupporting(static_cast<Op>(op)))
        << opName(static_cast<Op>(op));
}

TEST(ArchModel, DigestMatchesJobKeyLayer) {
  const Composition comp = makeIrregular('D');
  const std::string json = comp.toJson().dump();
  EXPECT_EQ(ArchModel::get(comp)->digest(),
            ArchModel::digestCompositionJson(json));
  EXPECT_EQ(ArchModel::get(comp)->digest(), compositionDigest(comp));
}

/// The job-key recipe spelled out, with no memo involved.
std::string recipeKey(const Composition& comp, const Cdfg& graph,
                      const SchedulerOptions& options) {
  return scheduleJobKeyWithDigests(
      ArchModel::digestCompositionJson(comp.toJson().dump()),
      cdfgDigest(graph), options);
}

TEST(DigestMemo, KeyingReadsTheMemoWithoutBuildingAModel) {
  const Composition comp = makeMesh(9);
  const Cdfg graph = kir::lowerToCdfg(apps::makeGcd(12, 18).fn).graph;
  SchedulerOptions options;
  options.maxContexts = 64;
  const std::string expected = recipeKey(comp, graph, options);

  const std::uint64_t before = ArchModel::buildsPerformed();
  EXPECT_EQ(scheduleJobKey(comp, graph, options), expected);
  EXPECT_EQ(scheduleJobKey(comp, graph, options), expected) << "memo hit";
  EXPECT_EQ(compositionDigest(comp),
            ArchModel::digestCompositionJson(comp.toJson().dump()));
  EXPECT_EQ(ArchModel::buildsPerformed(), before)
      << "keying and digesting must not build an ArchModel";

  // The build that follows takes the memoized digest; keys do not move.
  const auto model = ArchModel::get(comp);
  EXPECT_EQ(ArchModel::buildsPerformed() - before, 1u);
  EXPECT_EQ(model->digest(), compositionDigest(comp));
  EXPECT_EQ(scheduleJobKey(comp, graph, options), expected);
  EXPECT_EQ(ArchModel::build(comp).digest(), model->digest())
      << "the unmemoized build computes the same digest";
}

TEST(DigestMemo, ModelBuiltFirstServesTheSameDigest) {
  const Composition comp = makeIrregular('B');
  const Cdfg graph = kir::lowerToCdfg(apps::makeDotProduct(4, 1).fn).graph;
  const SchedulerOptions options;
  const std::string expected = recipeKey(comp, graph, options);
  const auto model = ArchModel::get(comp);
  const std::uint64_t before = ArchModel::buildsPerformed();
  EXPECT_EQ(scheduleJobKey(comp, graph, options), expected);
  EXPECT_EQ(compositionDigest(comp), model->digest());
  EXPECT_EQ(ArchModel::buildsPerformed(), before);
}

TEST(DigestMemo, ConcurrentKeyingAgreesOnFreshComposition) {
  // Four threads race to fill one fresh composition's digest memo.
  const Composition comp = makeMesh(16);
  const Cdfg graph = kir::lowerToCdfg(apps::makeFir(8, 3).fn).graph;
  const SchedulerOptions options;
  const std::uint64_t before = ArchModel::buildsPerformed();
  std::vector<std::string> keys(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < keys.size(); ++t)
    threads.emplace_back(
        [&, t] { keys[t] = scheduleJobKey(comp, graph, options); });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(ArchModel::buildsPerformed(), before);
  const std::string expected = recipeKey(comp, graph, options);
  for (const std::string& key : keys) EXPECT_EQ(key, expected);
}

TEST(ArchModel, GetMemoizesPerInstance) {
  const Composition comp = makeMesh(4);
  const std::uint64_t before = ArchModel::buildsPerformed();
  const auto a = ArchModel::get(comp);
  EXPECT_EQ(ArchModel::buildsPerformed() - before, 1u);
  const auto b = ArchModel::get(comp);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(ArchModel::buildsPerformed() - before, 1u)
      << "second get() must be served from the memo";

  // A copy of the composition shares the memo slot (and thus the model);
  // an independently constructed equal composition builds its own.
  const Composition copy = comp;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(ArchModel::get(copy).get(), a.get());
  EXPECT_EQ(ArchModel::buildsPerformed() - before, 1u);

  const Composition fresh = makeMesh(4);
  EXPECT_NE(ArchModel::get(fresh).get(), a.get());
  EXPECT_EQ(ArchModel::get(fresh)->digest(), a->digest())
      << "equal content must still digest identically";
}

TEST(ArchModel, RepeatedSchedulingBuildsModelOnce) {
  // Satellite guarantee: N schedulers + N schedule() calls on one
  // composition instance never recompute the Floyd–Warshall tables.
  const Composition comp = makeMesh(9);
  const Cdfg graph = kir::lowerToCdfg(apps::makeGcd(12, 18).fn).graph;
  const std::uint64_t before = ArchModel::buildsPerformed();
  std::uint64_t fingerprint = 0;
  for (int i = 0; i < 8; ++i) {
    const Scheduler scheduler(comp);
    const ScheduleReport r =
        scheduler.schedule(ScheduleRequest(graph)).orThrow();
    if (i == 0) fingerprint = r.schedule.fingerprint();
    EXPECT_EQ(r.schedule.fingerprint(), fingerprint);
  }
  EXPECT_EQ(ArchModel::buildsPerformed() - before, 1u);
}

TEST(ArchModel, SixtyFourJobSweepBuildsModelOnce) {
  // Acceptance criterion of the pass-pipeline refactor: a 64-job sweep over
  // one composition performs exactly one ArchModel build, and the
  // SweepReport says so.
  const Composition comp = makeMesh(9);
  std::deque<Cdfg> graphs;
  std::vector<SweepJob> jobs;
  const char* kernels[] = {"adpcm", "gcd", "dotprod", "fir"};
  for (unsigned i = 0; i < 64; ++i) {
    switch (i % 4) {
      case 0: graphs.push_back(kir::lowerToCdfg(apps::makeAdpcm(8, 1).fn).graph); break;
      case 1: graphs.push_back(kir::lowerToCdfg(apps::makeGcd(4 + i, 6).fn).graph); break;
      case 2: graphs.push_back(kir::lowerToCdfg(apps::makeDotProduct(4, 1).fn).graph); break;
      default: graphs.push_back(kir::lowerToCdfg(apps::makeFir(8, 3).fn).graph); break;
    }
    jobs.push_back(SweepJob{&comp, &graphs.back(),
                            std::string(kernels[i % 4]) + std::to_string(i),
                            SchedulerOptions{}});
  }

  const std::uint64_t before = ArchModel::buildsPerformed();
  SweepOptions opts;
  opts.threads = 4;
  const SweepReport report = runSweep(jobs, opts);
  EXPECT_EQ(ArchModel::buildsPerformed() - before, 1u);
  EXPECT_EQ(report.archModelBuilds, 1u);
  EXPECT_EQ(report.routingCacheEntries, 1u);
  EXPECT_EQ(report.results.size(), 64u);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_GE(report.archModelBuildMs, 0.0);

  // The volatile JSON form reports the build counters; the stable form must
  // not (builds depend on memo warmth from earlier sweeps).
  const std::string vol = report.toJson(true).dump();
  const std::string stable = report.toJson(false).dump();
  EXPECT_NE(vol.find("archModelBuilds"), std::string::npos);
  EXPECT_EQ(stable.find("archModelBuilds"), std::string::npos);
  EXPECT_EQ(stable.find("archModelBuildMs"), std::string::npos);
}

}  // namespace
}  // namespace cgra
