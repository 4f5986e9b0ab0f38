#include "explore/explorer.hpp"

#include <algorithm>
#include <chrono>
#include <limits>

#include "explore/operators.hpp"
#include "support/clock.hpp"

namespace cgra::explore {

namespace {

/// Stream id of the search RNG under the shared seeding convention
/// (support/rng.hpp): workload data and random kernels use other ids, so
/// `--seed 42` everywhere never aliases streams.
constexpr std::uint64_t kExploreStream = 0xE07;

/// Scalar collapse of the two objectives, used only for ranking parents
/// and the hillclimb pivot (the report itself stays bi-objective). The
/// product form is scale-free: halving area and doubling length cancel.
double scalarCost(const CandidateEval& e) {
  if (!e.feasible) return std::numeric_limits<double>::infinity();
  return e.areaLuts * e.weightedLength;
}

/// Strict-weak order: feasible before infeasible, then cheaper, then by
/// key so ranking never depends on archive insertion order.
bool betterScalar(const CandidateEval& a, const CandidateEval& b) {
  if (a.feasible != b.feasible) return a.feasible;
  const double ca = scalarCost(a);
  const double cb = scalarCost(b);
  if (ca != cb) return ca < cb;
  return a.key < b.key;
}

}  // namespace

json::Value GenerationStats::toJson(bool includeVolatile) const {
  json::Object obj;
  obj["generation"] = static_cast<std::int64_t>(generation);
  obj["proposed"] = static_cast<std::int64_t>(proposed);
  obj["evaluated"] = static_cast<std::int64_t>(evaluated);
  obj["frontSize"] = static_cast<std::int64_t>(frontSize);
  obj["dominated"] = static_cast<std::int64_t>(dominated);
  obj["infeasible"] = static_cast<std::int64_t>(infeasible);
  if (includeVolatile) {
    obj["wallMs"] = wallMs;
    obj["storeHits"] = static_cast<std::int64_t>(storeHits);
  }
  return obj;
}

json::Value ExploreReport::toJson(bool includeVolatile) const {
  json::Object obj;
  obj["schema"] = "cgra-explore-v1";
  obj["strategy"] = strategy;
  // 64-bit seeds exceed JSON's exact integer range; dump as a string like
  // the schedule fingerprints do.
  obj["seed"] = std::to_string(seed);
  obj["budget"] = static_cast<std::int64_t>(budget);
  obj["population"] = static_cast<std::int64_t>(population);
  obj["evaluations"] = static_cast<std::int64_t>(evaluations);
  obj["dominated"] = static_cast<std::int64_t>(dominatedCount);
  obj["infeasible"] = static_cast<std::int64_t>(infeasibleCount);
  obj["frontSize"] = static_cast<std::int64_t>(front.size());

  json::Array frontArr;
  for (const CandidateEval& e : front) frontArr.push_back(e.toJson());
  obj["front"] = std::move(frontArr);

  json::Array gens;
  for (const GenerationStats& g : generations)
    gens.push_back(g.toJson(includeVolatile));
  obj["generations"] = std::move(gens);

  json::Object ctr;
  ctr["evaluations"] = static_cast<std::int64_t>(counters.evaluations);
  ctr["memoHits"] = static_cast<std::int64_t>(counters.memoHits);
  ctr["jobs"] = static_cast<std::int64_t>(counters.jobs);
  if (includeVolatile) {
    ctr["storeHits"] = static_cast<std::int64_t>(counters.storeHits);
    ctr["storeMisses"] = static_cast<std::int64_t>(counters.storeMisses);
  }
  obj["counters"] = std::move(ctr);

  if (includeVolatile) obj["wallTimeMs"] = wallTimeMs;
  return json::sortKeys(json::Value(std::move(obj)));
}

Explorer::Explorer(CompositionSpace space, std::vector<ExploreKernel> kernels,
                   ExploreOptions options, artifact::ArtifactStore* store)
    : space_(std::move(space)),
      options_(std::move(options)),
      evaluator_(std::move(kernels), options_.sweep, store),
      rng_(deriveSeed(options_.seed, kExploreStream)),
      registry_(),
      proposalsTotal_(registry_.counter("cgra_explore_proposals_total",
                                        "Candidate genotypes proposed")),
      evaluationsTotal_(registry_.counter(
          "cgra_explore_evaluations_total",
          "Distinct candidate genotypes evaluated")),
      memoHitsTotal_(registry_.counter(
          "cgra_explore_memo_hits_total",
          "Proposals answered by the in-process evaluation memo")),
      storeHitsTotal_(registry_.counter(
          "cgra_explore_store_hits_total",
          "Candidate-kernel jobs served by the artifact store")),
      jobsTotal_(registry_.counter("cgra_explore_jobs_total",
                                   "Candidate-kernel sweep jobs dispatched")),
      frontSizeGauge_(registry_.gauge("cgra_explore_front_size",
                                      "Current Pareto-front size")),
      generationUs_(registry_.histogram("cgra_explore_generation_us",
                                        "Per-generation wall time")) {
  space_.validate();
  if (options_.strategy != "random" && options_.strategy != "hillclimb" &&
      options_.strategy != "genetic")
    throw Error("explore: unknown strategy \"" + options_.strategy +
                "\" (random|hillclimb|genetic)");
  if (options_.budget == 0) throw Error("explore: budget must be >= 1");
  if (options_.population == 0)
    throw Error("explore: population must be >= 1");
}

std::vector<Genotype> Explorer::proposeRandom() {
  std::vector<Genotype> out;
  for (unsigned i = 0; i < options_.population; ++i)
    out.push_back(space_.sample(rng_));
  return out;
}

std::vector<Genotype> Explorer::proposeHillclimb() {
  if (archive_.empty()) return proposeRandom();
  const CandidateEval& pivot =
      *std::min_element(archive_.begin(), archive_.end(), betterScalar);
  std::vector<Genotype> out;
  for (unsigned i = 0; i + 1 < options_.population; ++i)
    out.push_back(mutate(pivot.genotype, space_, rng_));
  out.push_back(space_.sample(rng_));  // keep escaping local optima
  return out;
}

std::vector<Genotype> Explorer::proposeGenetic() {
  if (archive_.empty()) return proposeRandom();
  // Parent pool: Pareto rank 0 first (the current front), then everyone
  // else, each tier ordered by scalar cost with a key tiebreak.
  const std::vector<std::size_t> front = paretoFrontIndices(archive_);
  std::vector<bool> onFront(archive_.size(), false);
  for (std::size_t i : front) onFront[i] = true;
  std::vector<std::size_t> order(archive_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (onFront[a] != onFront[b]) return static_cast<bool>(onFront[a]);
    return betterScalar(archive_[a], archive_[b]);
  });
  const std::size_t poolSize =
      std::min<std::size_t>(order.size(), options_.population);

  std::vector<Genotype> out;
  for (unsigned i = 0; i + 1 < options_.population; ++i) {
    const auto pick = [&] {
      return archive_[order[static_cast<std::size_t>(
                          rng_.range(0, static_cast<std::int64_t>(poolSize) -
                                            1))]]
          .genotype;
    };
    Genotype child = crossover(pick(), pick(), space_, rng_);
    if (rng_.chance(1, 2)) child = mutate(child, space_, rng_);
    out.push_back(std::move(child));
  }
  out.push_back(space_.sample(rng_));  // immigration keeps diversity up
  return out;
}

std::vector<Genotype> Explorer::propose() {
  if (options_.strategy == "random") return proposeRandom();
  if (options_.strategy == "hillclimb") return proposeHillclimb();
  return proposeGenetic();
}

std::vector<Genotype> Explorer::clipToBudget(std::vector<Genotype> proposals) {
  const std::uint64_t remaining =
      options_.budget - evaluator_.counters().evaluations;
  std::vector<Genotype> kept;
  std::vector<std::string> newKeys;
  for (Genotype& g : proposals) {
    const std::string key = g.key();
    const bool seen =
        evaluator_.known(key) ||
        std::find(newKeys.begin(), newKeys.end(), key) != newKeys.end();
    if (!seen) {
      if (newKeys.size() >= remaining) continue;  // over budget: drop
      newKeys.push_back(key);
    }
    kept.push_back(std::move(g));
  }
  return kept;
}

void Explorer::mergeIntoArchive(const std::vector<CandidateEval>& evals) {
  for (const CandidateEval& e : evals) {
    bool present = false;
    for (const CandidateEval& a : archive_) present = present || a.key == e.key;
    if (!present) archive_.push_back(e);
  }
}

ExploreReport Explorer::run() {
  const auto runStart = std::chrono::steady_clock::now();
  ExploreReport report;
  report.strategy = options_.strategy;
  report.seed = options_.seed;
  report.budget = options_.budget;
  report.population = options_.population;

  unsigned generation = 0;
  unsigned dryGenerations = 0;
  while (evaluator_.counters().evaluations < options_.budget &&
         dryGenerations < 2) {
    const auto genStart = std::chrono::steady_clock::now();
    const EvaluatorCounters before = evaluator_.counters();

    std::vector<Genotype> proposals = clipToBudget(propose());
    if (proposals.empty()) break;
    const std::vector<CandidateEval> evals = evaluator_.evaluate(proposals);
    mergeIntoArchive(evals);

    const EvaluatorCounters& after = evaluator_.counters();
    const std::vector<std::size_t> front = paretoFrontIndices(archive_);
    const std::size_t feasible =
        static_cast<std::size_t>(std::count_if(
            archive_.begin(), archive_.end(),
            [](const CandidateEval& e) { return e.feasible; }));

    GenerationStats stats;
    stats.generation = generation;
    stats.proposed = proposals.size();
    stats.evaluated =
        static_cast<std::size_t>(after.evaluations - before.evaluations);
    stats.frontSize = front.size();
    stats.dominated = feasible - front.size();
    stats.infeasible = archive_.size() - feasible;
    stats.wallMs = msSince(genStart);
    stats.storeHits = after.storeHits - before.storeHits;
    report.generations.push_back(stats);

    proposalsTotal_.inc(proposals.size());
    evaluationsTotal_.inc(after.evaluations - before.evaluations);
    memoHitsTotal_.inc(after.memoHits - before.memoHits);
    storeHitsTotal_.inc(after.storeHits - before.storeHits);
    jobsTotal_.inc(after.jobs - before.jobs);
    frontSizeGauge_.set(static_cast<std::int64_t>(front.size()));
    generationUs_.record(static_cast<std::uint64_t>(stats.wallMs * 1000.0));

    dryGenerations = stats.evaluated == 0 ? dryGenerations + 1 : 0;
    ++generation;
  }

  const std::vector<std::size_t> front = paretoFrontIndices(archive_);
  for (std::size_t i : front) report.front.push_back(archive_[i]);
  std::sort(report.front.begin(), report.front.end(),
            [](const CandidateEval& a, const CandidateEval& b) {
              return a.key < b.key;
            });
  const std::size_t feasible = static_cast<std::size_t>(
      std::count_if(archive_.begin(), archive_.end(),
                    [](const CandidateEval& e) { return e.feasible; }));
  report.evaluations = archive_.size();
  report.dominatedCount = feasible - front.size();
  report.infeasibleCount = archive_.size() - feasible;
  report.counters = evaluator_.counters();
  report.wallTimeMs = msSince(runStart);
  return report;
}

}  // namespace cgra::explore
