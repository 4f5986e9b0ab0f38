// Tests for the design-space-exploration subsystem (DESIGN.md §14):
// space validation/sampling/repair, operator well-formedness, Pareto
// semantics, evaluator memoization, and the Explorer's acceptance
// properties — byte-identical stable reports across thread counts and
// repeats for a fixed seed, every front member non-dominated, exact
// budget accounting, warm artifact-store re-runs with hits > 0 and an
// identical front, and front members that run every kernel bit-exact.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "apps/kernels.hpp"
#include "explore/evaluator.hpp"
#include "explore/explorer.hpp"
#include "explore/operators.hpp"
#include "explore/space.hpp"
#include "kir/interp.hpp"
#include "kir/lower_cdfg.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"
#include "temp_dir.hpp"

namespace cgra::explore {
namespace {

/// Small two-kernel workload shared by the search tests; graphs are owned
/// here so ExploreKernel pointers stay valid for the Explorer's lifetime.
struct Kernels {
  Cdfg gcd;
  Cdfg dot;

  Kernels()
      : gcd(kir::lowerToCdfg(apps::makeGcd(4, 6).fn).graph),
        dot(kir::lowerToCdfg(apps::makeDotProduct(4).fn).graph) {}

  std::vector<ExploreKernel> set() const {
    return {ExploreKernel{"gcd", &gcd, 1.0},
            ExploreKernel{"dotprod", &dot, 2.0}};
  }
};

/// A deliberately tiny space so search tests stay fast: 2x2 and 2x3
/// meshes/rings, two RF widths.
CompositionSpace tinySpace() {
  CompositionSpace space;
  space.topologies = {"mesh", "ring"};
  space.minRows = 2;
  space.maxRows = 2;
  space.minCols = 2;
  space.maxCols = 3;
  space.rfSizes = {64, 128};
  space.cboxChoices = {16, 32};
  space.contextLengths = {256};
  space.maxDmaPEs = 2;
  return space;
}

ExploreOptions smallOptions(const std::string& strategy, std::uint64_t seed,
                            unsigned budget = 8, unsigned population = 4) {
  ExploreOptions opts;
  opts.strategy = strategy;
  opts.seed = seed;
  opts.budget = budget;
  opts.population = population;
  return opts;
}

TEST(ExploreSpace, DefaultSpaceValidatesAndSamplesWellFormed) {
  CompositionSpace space;
  ASSERT_NO_THROW(space.validate());
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const Genotype g = space.sample(rng);
    EXPECT_TRUE(space.contains(g)) << g.key();
    // Every sampled point must pass both the factory's typed checks and
    // Composition::validate() — the well-formedness guarantee the search
    // relies on.
    ASSERT_NO_THROW(g.materialize()) << g.key();
  }
}

TEST(ExploreSpace, RepairIsAFixpointAndCanonicalizesFullMulSet) {
  const CompositionSpace space = tinySpace();
  Genotype g;
  g.topology = "torus";  // not in the space
  g.rows = 9;
  g.cols = 9;
  g.rfSize = 100;   // snaps to a listed choice
  g.cboxSlots = 3;  // snaps up
  g.contextLength = 1;
  g.dmaPEs = {17, 17, 3};  // out of range + duplicate
  g.mulPEs = {0, 1, 2, 3, 4, 5};

  space.repair(g);
  EXPECT_TRUE(space.contains(g)) << g.key();
  Genotype again = g;
  space.repair(again);
  EXPECT_EQ(again.key(), g.key()) << "repair must be a fixpoint";

  // A mul set covering every PE is the same hardware as "all multiply";
  // repair collapses it to the canonical empty encoding so equal machines
  // always share a key.
  Genotype full;
  full.topology = "mesh";
  full.rows = 2;
  full.cols = 2;
  full.mulPEs = {0, 1, 2, 3};
  space.repair(full);
  EXPECT_TRUE(full.mulPEs.empty());
  EXPECT_NE(full.key().find("-mall"), std::string::npos);
}

TEST(ExploreSpace, KeyIdentifiesHardwareAndNamesComposition) {
  Genotype g;
  g.topology = "mesh";
  g.rows = 2;
  g.cols = 3;
  g.rfSize = 64;
  g.cboxSlots = 16;
  g.contextLength = 128;
  g.dmaPEs = {0, 5};
  EXPECT_EQ(g.key(), "mesh2x3-rf64-cb16-cx128-d0.5-mall");
  const Composition comp = g.materialize();
  EXPECT_EQ(comp.name(), g.key());
  EXPECT_EQ(comp.numPEs(), 6u);
}

TEST(ExploreSpace, JsonRoundTripAndUnknownKeyRejection) {
  const CompositionSpace space = tinySpace();
  const CompositionSpace back = CompositionSpace::fromJson(space.toJson());
  EXPECT_EQ(back.toJson().dump(), space.toJson().dump());

  json::Object obj = space.toJson().asObject();
  obj["rfsizes"] = json::Array{};  // typo'd key must fail loudly
  try {
    CompositionSpace::fromJson(obj);
    ADD_FAILURE() << "a typo'd space key must be rejected";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "explore space: unknown key \"rfsizes\"");
  }

  // A genotype document too: it round-trips, an absent key keeps its
  // default, and an unknown key is an error naming it.
  Genotype g;
  g.topology = "ring";
  g.cols = 5;
  g.dmaPEs = {1, 3};
  g.mulPEs = {2};
  EXPECT_EQ(Genotype::fromJson(g.toJson()).key(), g.key());
  EXPECT_EQ(Genotype::fromJson(json::parse(R"({"cols": 5})")).key(),
            "mesh2x5-rf128-cb32-cx256-d0-mall");
  EXPECT_THROW(Genotype::fromJson(json::parse(R"({"colls": 5})")), Error);
}

TEST(ExploreSpace, ValidateRejectsDegenerateSpaces) {
  {
    CompositionSpace s = tinySpace();
    s.topologies.clear();
    EXPECT_THROW(s.validate(), Error);
  }
  {
    CompositionSpace s = tinySpace();
    s.minRows = 3;
    s.maxRows = 2;  // inverted range
    EXPECT_THROW(s.validate(), Error);
  }
  {
    CompositionSpace s = tinySpace();
    s.rfSizes = {0};  // RF width 0 can never validate
    EXPECT_THROW(s.validate(), Error);
  }
  {
    CompositionSpace s = tinySpace();
    s.maxDmaPEs = 0;
    EXPECT_THROW(s.validate(), Error);
  }
  {
    CompositionSpace s = tinySpace();
    s.maxDmaPEs = 5;  // paper caps DMA PEs at 4
    EXPECT_THROW(s.validate(), Error);
  }
  {
    // A torus-only space whose shape range cannot reach 2x2 has no valid
    // points at all.
    CompositionSpace s = tinySpace();
    s.topologies = {"torus"};
    s.minRows = 1;
    s.maxRows = 1;
    EXPECT_THROW(s.validate(), Error);
  }
}

TEST(ExploreOperators, MutationAndCrossoverStayInsideTheSpace) {
  const CompositionSpace space = tinySpace();
  Rng rng(11);
  Genotype a = space.sample(rng);
  Genotype b = space.sample(rng);
  for (int i = 0; i < 500; ++i) {
    const Genotype m = mutate(a, space, rng);
    EXPECT_TRUE(space.contains(m)) << m.key();
    ASSERT_NO_THROW(m.materialize()) << m.key();
    const Genotype c = crossover(a, b, space, rng);
    EXPECT_TRUE(space.contains(c)) << c.key();
    ASSERT_NO_THROW(c.materialize()) << c.key();
    a = m;
    b = c;
  }
}

TEST(ExploreOperators, MutationUsuallyMovesTheCandidate) {
  const CompositionSpace space = tinySpace();
  Rng rng(3);
  const Genotype g = space.sample(rng);
  int moved = 0;
  for (int i = 0; i < 64; ++i)
    if (mutate(g, space, rng).key() != g.key()) ++moved;
  // mutate retries up to 8 field edits looking for a key change; in this
  // multi-point space staying put should be rare.
  EXPECT_GT(moved, 48);
}

TEST(ExplorePareto, DominanceSemantics) {
  CandidateEval cheapShort, cheapLong, bigShort, infeasible;
  cheapShort.key = "a";
  cheapShort.feasible = true;
  cheapShort.areaLuts = 100;
  cheapShort.weightedLength = 10;
  cheapLong = cheapShort;
  cheapLong.key = "b";
  cheapLong.weightedLength = 20;
  bigShort = cheapShort;
  bigShort.key = "c";
  bigShort.areaLuts = 200;
  infeasible.key = "d";
  infeasible.feasible = false;
  infeasible.areaLuts = 1;
  infeasible.weightedLength = 1;

  EXPECT_TRUE(dominates(cheapShort, cheapLong));
  EXPECT_FALSE(dominates(cheapLong, cheapShort));
  EXPECT_TRUE(dominates(cheapShort, bigShort));
  // Trade-off points do not dominate each other.
  EXPECT_FALSE(dominates(cheapLong, bigShort));
  EXPECT_FALSE(dominates(bigShort, cheapLong));
  // Feasible always beats infeasible; infeasible never dominates.
  EXPECT_TRUE(dominates(cheapLong, infeasible));
  EXPECT_FALSE(dominates(infeasible, cheapShort));
  // Equal objectives: neither dominates (both stay on the front).
  CandidateEval twin = cheapShort;
  twin.key = "e";
  EXPECT_FALSE(dominates(cheapShort, twin));
  EXPECT_FALSE(dominates(twin, cheapShort));

  const std::vector<CandidateEval> all{cheapShort, cheapLong, bigShort,
                                       infeasible, twin};
  const std::vector<std::size_t> front = paretoFrontIndices(all);
  EXPECT_EQ(front, (std::vector<std::size_t>{0, 4}));
}

TEST(ExploreEvaluator, MemoizesByKeyAndCountsTraffic) {
  const Kernels kernels;
  Evaluator eval(kernels.set(), SweepOptions{}, nullptr);
  Genotype g;  // default 2x2 mesh
  const std::vector<Genotype> batch{g, g};

  const std::vector<CandidateEval> first = eval.evaluate(batch);
  ASSERT_EQ(first.size(), 2u);
  EXPECT_EQ(first[0].key, first[1].key);
  EXPECT_EQ(eval.counters().evaluations, 1u);
  EXPECT_EQ(eval.counters().memoHits, 1u);
  EXPECT_EQ(eval.counters().jobs, kernels.set().size());
  EXPECT_TRUE(eval.known(g.key()));

  const std::vector<CandidateEval> second = eval.evaluate({g});
  EXPECT_EQ(eval.counters().evaluations, 1u) << "memo must absorb repeats";
  EXPECT_EQ(eval.counters().memoHits, 2u);
  EXPECT_EQ(second[0].toJson().dump(), first[0].toJson().dump());

  // A feasible evaluation carries the evidence the report shows.
  EXPECT_TRUE(first[0].feasible);
  EXPECT_GT(first[0].areaLuts, 0.0);
  EXPECT_GT(first[0].weightedLength, 0.0);
  ASSERT_EQ(first[0].kernels.size(), 2u);
  for (const KernelOutcome& k : first[0].kernels) EXPECT_TRUE(k.ok);
}

TEST(ExploreEvaluator, RejectsEmptyWorkload) {
  EXPECT_THROW(Evaluator({}, SweepOptions{}, nullptr), Error);
  ExploreKernel nullGraph{"broken", nullptr, 1.0};
  EXPECT_THROW(Evaluator({nullGraph}, SweepOptions{}, nullptr), Error);
}

TEST(Explorer, RejectsBadOptions) {
  const Kernels kernels;
  EXPECT_THROW(
      Explorer(tinySpace(), kernels.set(), smallOptions("anneal", 1)), Error);
  EXPECT_THROW(Explorer(tinySpace(), kernels.set(), smallOptions("random", 1, 0)),
               Error);
  ExploreOptions zeroPop = smallOptions("random", 1);
  zeroPop.population = 0;
  EXPECT_THROW(Explorer(tinySpace(), kernels.set(), zeroPop), Error);
  CompositionSpace bad = tinySpace();
  bad.topologies.clear();
  EXPECT_THROW(Explorer(bad, kernels.set(), smallOptions("random", 1)), Error);
}

TEST(Explorer, FrontMembersAreMutuallyNonDominated) {
  const Kernels kernels;
  for (const char* strategy : {"random", "hillclimb", "genetic"}) {
    Explorer explorer(tinySpace(), kernels.set(), smallOptions(strategy, 5));
    const ExploreReport report = explorer.run();
    ASSERT_FALSE(report.front.empty()) << strategy;
    for (const CandidateEval& e : report.front) {
      EXPECT_TRUE(e.feasible) << strategy << " " << e.key;
      for (const CandidateEval& other : report.front)
        EXPECT_FALSE(dominates(other, e))
            << strategy << ": " << other.key << " dominates " << e.key;
    }
    // The front is reported in sorted key order (stable bytes).
    EXPECT_TRUE(std::is_sorted(report.front.begin(), report.front.end(),
                               [](const CandidateEval& a,
                                  const CandidateEval& b) {
                                 return a.key < b.key;
                               }))
        << strategy;
  }
}

TEST(Explorer, BudgetBoundsDistinctEvaluationsExactly) {
  const Kernels kernels;
  Explorer explorer(tinySpace(), kernels.set(),
                    smallOptions("random", 9, /*budget=*/5, /*population=*/4));
  const ExploreReport report = explorer.run();
  EXPECT_LE(report.evaluations, 5u);
  EXPECT_EQ(report.counters.evaluations, report.evaluations);
  // Bookkeeping identity: archive = front + dominated + infeasible.
  EXPECT_EQ(report.evaluations, report.front.size() + report.dominatedCount +
                                    report.infeasibleCount);
  std::size_t evaluated = 0;
  for (const GenerationStats& g : report.generations) evaluated += g.evaluated;
  EXPECT_EQ(evaluated, report.evaluations);
}

TEST(Explorer, StableReportIsByteIdenticalAcrossThreadsAndRepeats) {
  const Kernels kernels;
  std::string baseline;
  for (unsigned threads : {1u, 2u, 8u}) {
    ExploreOptions opts = smallOptions("genetic", 42, 10, 4);
    opts.sweep.threads = threads;
    Explorer explorer(tinySpace(), kernels.set(), opts);
    const std::string stable = explorer.run().toJson(false).dump();
    EXPECT_EQ(stable.find("wallTimeMs"), std::string::npos)
        << "stable form must omit volatile fields";
    EXPECT_EQ(stable.find("storeHits"), std::string::npos);
    if (baseline.empty())
      baseline = stable;
    else
      EXPECT_EQ(stable, baseline) << threads << " threads";
  }
  // Repeat run, same seed: identical bytes.
  ExploreOptions opts = smallOptions("genetic", 42, 10, 4);
  Explorer repeat(tinySpace(), kernels.set(), opts);
  EXPECT_EQ(repeat.run().toJson(false).dump(), baseline);
  // A different seed explores differently (sanity that the seed matters).
  Explorer other(tinySpace(), kernels.set(), smallOptions("genetic", 43, 10, 4));
  EXPECT_NE(other.run().toJson(false).dump(), baseline);
}

TEST(Explorer, WarmStoreRerunHitsCacheAndKeepsTheFront) {
  const Kernels kernels;
  const TempDir dir("warm");
  artifact::StoreOptions storeOpts;
  storeOpts.directory = dir.str();

  std::string coldStable;
  std::uint64_t coldMisses = 0;
  {
    artifact::ArtifactStore store(storeOpts);
    Explorer cold(tinySpace(), kernels.set(), smallOptions("genetic", 42, 8, 4),
                  &store);
    const ExploreReport report = cold.run();
    coldStable = report.toJson(false).dump();
    coldMisses = report.counters.storeMisses;
    EXPECT_GT(coldMisses, 0u);
  }
  {
    artifact::ArtifactStore store(storeOpts);
    Explorer warm(tinySpace(), kernels.set(), smallOptions("genetic", 42, 8, 4),
                  &store);
    const ExploreReport report = warm.run();
    // Acceptance: warm re-run reports store hits > 0 and an identical front.
    EXPECT_GT(report.counters.storeHits, 0u);
    EXPECT_EQ(report.counters.storeMisses, 0u);
    EXPECT_EQ(report.counters.storeHits, coldMisses)
        << "every cold miss must be a warm hit";
    EXPECT_EQ(report.toJson(false).dump(), coldStable);
  }
}

TEST(Explorer, FrontMembersRunEveryKernelBitExact) {
  // The front answers "which compositions fit this kernel domain" (paper
  // §VII): every member must run every kernel correctly, and its quality
  // axis must be the weighted context count.
  const std::vector<apps::Workload> workloads{apps::makeEwmaClip(8, 3),
                                              apps::makeBubbleSort(6, 4)};
  std::vector<Cdfg> graphs;
  for (const apps::Workload& w : workloads)
    graphs.push_back(kir::lowerToCdfg(w.fn).graph);
  const std::vector<ExploreKernel> set{
      ExploreKernel{workloads[0].name, &graphs[0], 1.0},
      ExploreKernel{workloads[1].name, &graphs[1], 2.0}};

  Explorer explorer(tinySpace(), set, smallOptions("genetic", 42));
  const ExploreReport report = explorer.run();
  ASSERT_FALSE(report.front.empty());
  for (const CandidateEval& e : report.front) {
    const Composition comp = e.genotype.materialize();
    ASSERT_EQ(e.kernels.size(), set.size()) << e.key;
    double weighted = 0.0;
    for (std::size_t i = 0; i < set.size(); ++i) {
      const apps::Workload& w = workloads[i];
      ASSERT_TRUE(e.kernels[i].ok) << e.key << " " << w.name;
      weighted += set[i].weight * e.kernels[i].contexts;

      HostMemory goldenHeap = w.heap;
      const auto golden =
          kir::Interpreter().run(w.fn, w.initialLocals, goldenHeap);
      const ScheduleReport r =
          Scheduler(comp).schedule(ScheduleRequest(graphs[i])).orThrow();
      EXPECT_EQ(r.schedule.length, e.kernels[i].contexts) << e.key;
      std::map<VarId, std::int32_t> liveIns;
      for (const LiveBinding& lb : r.schedule.liveIns)
        liveIns[lb.var] = w.initialLocals[lb.var];
      HostMemory heap = w.heap;
      const SimResult sr = Simulator(comp, r.schedule).run(liveIns, heap);
      EXPECT_TRUE(heap == goldenHeap) << e.key << " " << w.name;
      for (const auto& [var, value] : sr.liveOuts)
        EXPECT_EQ(value, golden.locals[var]) << e.key << " " << w.name;
    }
    EXPECT_EQ(e.weightedLength, weighted) << e.key;
  }
}

TEST(Explorer, MetricsExposeSearchTraffic) {
  const Kernels kernels;
  Explorer explorer(tinySpace(), kernels.set(), smallOptions("random", 2, 6, 3));
  const ExploreReport report = explorer.run();
  const std::string text = explorer.metricsText();
  EXPECT_NE(text.find("cgra_explore_proposals_total"), std::string::npos);
  EXPECT_NE(text.find("cgra_explore_evaluations_total " +
                      std::to_string(report.counters.evaluations)),
            std::string::npos);
  EXPECT_NE(text.find("cgra_explore_front_size " +
                      std::to_string(report.front.size())),
            std::string::npos);
  EXPECT_NE(text.find("cgra_explore_generation_us"), std::string::npos);
}

TEST(Explorer, ReportJsonShape) {
  const Kernels kernels;
  Explorer explorer(tinySpace(), kernels.set(), smallOptions("hillclimb", 6, 6, 3));
  const ExploreReport report = explorer.run();
  const json::Value v = report.toJson(true);
  const json::Object& obj = v.asObject();
  EXPECT_EQ(obj.at("schema").asString(), "cgra-explore-v1");
  EXPECT_EQ(obj.at("strategy").asString(), "hillclimb");
  EXPECT_EQ(obj.at("seed").asString(), "6");
  EXPECT_EQ(static_cast<std::size_t>(obj.at("frontSize").asInt()),
            report.front.size());
  EXPECT_TRUE(obj.find("wallTimeMs") != nullptr);
  const json::Array& front = obj.at("front").asArray();
  ASSERT_EQ(front.size(), report.front.size());
  for (const json::Value& member : front) {
    const json::Object& m = member.asObject();
    EXPECT_TRUE(m.at("feasible").asBool());
    EXPECT_EQ(m.at("kernels").asArray().size(), kernels.set().size());
  }
}

}  // namespace
}  // namespace cgra::explore
