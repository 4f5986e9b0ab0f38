// Tests for the shared immutable ArchModel: table correctness against the
// composition it was built from, digest equivalence with the job-key layer,
// per-instance memoization (copies share, distinct instances do not), the
// digest memo that keying reads without a model build (also from racing
// threads), and the headline guarantee of the pass-pipeline refactor — a
// 64-job single-composition sweep performs exactly one model build — and
// the composition digests pinned byte for byte by a golden.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <thread>
#include <utility>
#include <vector>

#include "apps/kernels.hpp"
#include "arch/arch_model.hpp"
#include "arch/factory.hpp"
#include "explore/space.hpp"
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
  const std::string json = comp.canonicalJson();
  EXPECT_EQ(ArchModel::get(comp)->digest(),
            ArchModel::digestCompositionJson(json));
  EXPECT_EQ(ArchModel::get(comp)->digest(), compositionDigest(comp));
}

/// The job-key recipe spelled out, with no memo involved.
std::string recipeKey(const Composition& comp, const Cdfg& graph,
                      const SchedulerOptions& options) {
  return scheduleJobKeyWithDigests(
      ArchModel::digestCompositionJson(comp.canonicalJson()),
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
            ArchModel::digestCompositionJson(comp.canonicalJson()));
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

/// Every composition family the toolflow builds: the Fig. 13 meshes, the
/// Fig. 14 irregular compositions, each makeTopology family, a descriptor
/// set with non-integral energies and names that need escaping, and 100
/// seeded draws of the explorer's default space.
std::vector<std::pair<std::string, Composition>> goldenCompositions() {
  std::vector<std::pair<std::string, Composition>> out;
  for (unsigned n : meshSizes())
    out.emplace_back("mesh" + std::to_string(n), makeMesh(n));
  FactoryOptions oneCycleMul;
  oneCycleMul.blockMultiplier = false;
  oneCycleMul.regfileSize = 64;
  out.emplace_back("mesh9-1cyclemul", makeMesh(9, oneCycleMul));
  for (char label : irregularLabels())
    out.emplace_back(std::string(1, label), makeIrregular(label));
  const FactoryOptions opts;
  out.emplace_back("torus3x3",
                   makeTopology("torus3x3", "torus", 3, 3, opts, {0, 4}));
  out.emplace_back("ring6", makeTopology("ring6", "ring", 2, 3, opts, {0}));
  out.emplace_back("uniring5",
                   makeTopology("uniring5", "uniring", 1, 5, opts, {2}));
  out.emplace_back("star7",
                   makeTopology("star7", "star", 1, 7, opts, {0}, {1, 3}));

  std::vector<PEDescriptor> pes;
  for (unsigned i = 0; i < 3; ++i) {
    PEDescriptor pe = PEDescriptor::fullInteger(
        "PE \"" + std::to_string(i) + "\"\t\\", 16 << i, i == 0);
    pe.addOp(Op::IMUL, OpImpl{1.7 + i, 2});
    pe.addOp(Op::IADD, OpImpl{0.125e-7, 1});
    pe.addOp(Op::ISUB, OpImpl{12345678.9, 3});
    pes.push_back(std::move(pe));
  }
  pes[2].removeOp(Op::IMUL);
  Interconnect ic(3);
  ic.addBidirectional(0, 1);
  ic.addLink(1, 2);
  ic.addLink(2, 0);
  ic.computeShortestPaths();
  out.emplace_back("custom", Composition("custom \"3\"\n", std::move(pes),
                                         std::move(ic), 64, 4));

  const explore::CompositionSpace space;
  Rng rng(20260);
  for (int i = 0; i < 100; ++i) {
    const explore::Genotype g = space.sample(rng);
    out.emplace_back("space" + std::to_string(i) + " " + g.key(),
                     g.materialize());
  }
  return out;
}

TEST(CompositionDigest, MatchesGolden) {
  // One line per composition: its label and the full composition digest,
  // the composition's contribution to every job key. Regenerate with
  // CGRA_REGEN_GOLDENS=1 only when the canonical document changes on
  // purpose, which moves every cached artifact's key.
  const std::string path =
      std::string(CGRA_GOLDEN_DIR) + "/composition_digests.txt";
  std::vector<std::string> lines;
  for (const auto& [label, comp] : goldenCompositions())
    lines.push_back(label + " " + compositionDigest(comp));

  if (std::getenv("CGRA_REGEN_GOLDENS") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    for (const std::string& line : lines) out << line << "\n";
    return;
  }

  std::ifstream golden(path);
  ASSERT_TRUE(golden.is_open()) << "missing " << path;
  std::vector<std::string> expected;
  for (std::string line; std::getline(golden, line);)
    if (!line.empty()) expected.push_back(line);
  ASSERT_EQ(lines.size(), expected.size());
  for (std::size_t i = 0; i < lines.size(); ++i)
    EXPECT_EQ(lines[i], expected[i]);
}

TEST(CompositionDigest, CanonicalJsonIsAFixpointOfParseAndDump) {
  // The writer emits exactly what the tree form dumps, and the document
  // reads back to the same composition.
  for (const auto& [label, comp] : goldenCompositions()) {
    const std::string text = comp.canonicalJson();
    EXPECT_EQ(json::parse(text).dump(), text) << label;
    EXPECT_EQ(Composition::fromJson(json::parse(text)).canonicalJson(), text)
        << label;
  }
}

}  // namespace
}  // namespace cgra
