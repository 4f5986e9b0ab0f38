// Cold-vs-warm design-space exploration through the artifact store
// (DESIGN.md §14): one fixed-seed genetic search is run against an empty
// cache directory, then repeated with a fresh Explorer over the now-
// populated store. The warm run must answer every candidate×kernel job
// from the store (misses gated at 0, hits > 0) and reproduce the cold
// run's stable report byte-for-byte — the determinism bar the subsystem
// promises. Search-shape metrics (evaluations, front size, dominated /
// infeasible tallies) are deterministic for the fixed seed and gated by
// tools/bench_compare.py; wall clock lands in the warn-only timings.
#include <chrono>
#include <deque>
#include <filesystem>
#include <iostream>

#include "artifact/store.hpp"
#include "bench_common.hpp"
#include "explore/explorer.hpp"

namespace {

using namespace cgra;
using namespace cgra::bench;

}  // namespace

int main() {
  // Three cheap kernels with mixed control flow keep the cold search fast
  // while exercising predication and loops on every candidate.
  std::deque<Cdfg> graphs;
  graphs.push_back(kir::lowerToCdfg(apps::makeDotProduct(8).fn).graph);
  graphs.push_back(kir::lowerToCdfg(apps::makeGcd(546, 2394).fn).graph);
  graphs.push_back(kir::lowerToCdfg(apps::makeSobel().fn).graph);
  const std::vector<explore::ExploreKernel> kernels{
      {"dotprod", &graphs[0], 1.0},
      {"gcd", &graphs[1], 1.0},
      {"sobel", &graphs[2], 2.0},
  };

  explore::CompositionSpace space;  // the default paper-range space
  explore::ExploreOptions opts;
  opts.strategy = "genetic";
  opts.seed = 42;
  opts.budget = 12;
  opts.population = 4;
  opts.sweep.threads = 2;

  namespace sfs = std::filesystem;
  const sfs::path cacheDir = sfs::temp_directory_path() / "cgra_bench_explore";
  sfs::remove_all(cacheDir);
  artifact::StoreOptions storeOpts;
  storeOpts.directory = cacheDir.string();
  artifact::ArtifactStore store(storeOpts);

  const auto coldStart = std::chrono::steady_clock::now();
  explore::Explorer coldExplorer(space, kernels, opts, &store);
  const explore::ExploreReport cold = coldExplorer.run();
  const double coldMs = msSince(coldStart);

  // A fresh Explorer over the same store: the in-process memo is empty, so
  // every candidate is re-summarized, but every schedule comes back from
  // the artifact store.
  const auto warmStart = std::chrono::steady_clock::now();
  explore::Explorer warmExplorer(space, kernels, opts, &store);
  const explore::ExploreReport warm = warmExplorer.run();
  const double warmMs = msSince(warmStart);
  sfs::remove_all(cacheDir);

  const std::string coldStable = cold.toJson(false).dump();
  const bool stableIdentical = coldStable == warm.toJson(false).dump();
  const double speedup = warmMs > 0.0 ? coldMs / warmMs : 0.0;

  std::cout << "evaluations: " << cold.evaluations << " ("
            << cold.front.size() << " on front, " << cold.dominatedCount
            << " dominated, " << cold.infeasibleCount << " infeasible) over "
            << cold.generations.size() << " generation(s)\n"
            << "cold: " << coldMs << " ms (" << cold.counters.storeMisses
            << " store misses)\n"
            << "warm: " << warmMs << " ms (" << warm.counters.storeHits
            << " store hits, " << warm.counters.storeMisses << " misses, "
            << speedup << "x)\n"
            << "stable JSON " << (stableIdentical ? "identical" : "DIVERGED")
            << "\n";

  BenchReport report("explore");
  // Deterministic for the fixed seed, gated: the shape of the search and
  // the cache behaviour of the warm rerun.
  report.metric("evaluations", static_cast<std::uint64_t>(cold.evaluations));
  report.metric("frontSize", static_cast<std::uint64_t>(cold.front.size()));
  report.metric("dominated", static_cast<std::uint64_t>(cold.dominatedCount));
  report.metric("infeasible",
                static_cast<std::uint64_t>(cold.infeasibleCount));
  report.metric("warmStoreMisses", warm.counters.storeMisses);
  report.metric("stableJsonDiverged",
                static_cast<std::uint64_t>(stableIdentical ? 0 : 1));
  // Wall clock: warn-only (and gated loosely via --gate-timing in CI).
  report.timing("exploreColdMs", coldMs);
  report.timing("exploreWarmMs", warmMs);
  report.info("strategy", opts.strategy);
  report.info("budget", std::to_string(opts.budget));
  report.info("generations", std::to_string(cold.generations.size()));
  report.info("speedup", std::to_string(speedup) + "x");
  report.write();

  // Acceptance: warm rerun fully cache-served, identical stable bytes,
  // and a usable (non-empty, all-feasible) front.
  if (!stableIdentical) {
    std::cerr << "FAIL: stable report diverged between cold and warm runs\n";
    return 1;
  }
  if (warm.counters.storeMisses != 0 || warm.counters.storeHits == 0) {
    std::cerr << "FAIL: warm rerun missed the store ("
              << warm.counters.storeMisses << " misses, "
              << warm.counters.storeHits << " hits)\n";
    return 1;
  }
  if (cold.front.empty()) {
    std::cerr << "FAIL: empty Pareto front\n";
    return 1;
  }
  for (const explore::CandidateEval& e : cold.front)
    if (!e.feasible) {
      std::cerr << "FAIL: infeasible candidate " << e.key << " on the front\n";
      return 1;
    }
  return 0;
}
