// Cold-vs-warm compile through the persistent artifact store (DESIGN.md
// §10): a sweep matrix is scheduled against an empty cache directory,
// then repeated against the now-populated store — the service scenario the
// subsystem exists for (repeated sweep matrices inside one long-lived
// process). A third run re-opens the directory with a fresh store to prove
// the artifacts also survive on disk across processes. The warm runs must
// answer every job from the store; wall-clock lands in the warn-only
// timings section, while the deterministic cache traffic (misses, hits,
// failures, stable-JSON divergence) is gated by tools/bench_compare.py.
//
// Each phase is timed as the best of kRounds full repetitions (fresh cache
// directory per round): the speedup bar compares the phases' costs, not
// one round's scheduling jitter against another's.
#include <algorithm>
#include <chrono>
#include <deque>
#include <filesystem>
#include <iostream>
#include <limits>
#include <vector>

#include "artifact/store.hpp"
#include "artifact/sweep_cache.hpp"
#include "bench_common.hpp"
#include "sched/sweep.hpp"

namespace {

using namespace cgra;
using namespace cgra::bench;

constexpr int kRounds = 3;

}  // namespace

int main() {
  // The evaluation kernel (ADPCM, 416 samples, unroll 2) across the mesh
  // sizes plus two cheap kernels: enough scheduling work that the cold run
  // dominates, with a few duplicate jobs so in-sweep dedup shows up too.
  const AdpcmSetup adpcm = AdpcmSetup::make();
  const Cdfg stereo = kir::lowerToCdfg(
      kir::unrollLoops(apps::makeAdpcmStereo().fn, kUnrollFactor,
                       /*innermostOnly=*/true)).graph;
  const Cdfg sobel = kir::lowerToCdfg(apps::makeSobel().fn).graph;

  std::deque<Composition> comps;
  for (unsigned n : {9u, 12u, 16u}) comps.push_back(makeMesh(n));

  std::vector<SweepJob> jobs;
  for (const Composition& comp : comps) {
    jobs.push_back(SweepJob{&comp, &adpcm.graph, "adpcm@" + comp.name(),
                            SchedulerOptions{}});
    jobs.push_back(SweepJob{&comp, &stereo, "stereo@" + comp.name(),
                            SchedulerOptions{}});
    jobs.push_back(SweepJob{&comp, &sobel, "sobel@" + comp.name(),
                            SchedulerOptions{}});
  }
  // Duplicates: scheduled once, copied to the repeats.
  jobs.push_back(
      SweepJob{&comps[0], &adpcm.graph, "adpcm-dup", SchedulerOptions{}});
  jobs.push_back(SweepJob{&comps[0], &stereo, "stereo-dup", SchedulerOptions{}});

  namespace sfs = std::filesystem;
  const sfs::path cacheDir =
      sfs::temp_directory_path() / "cgra_bench_artifact_cache";

  SweepOptions opts;
  opts.threads = 2;
  artifact::StoreOptions storeOpts;
  storeOpts.directory = cacheDir.string();

  double coldMs = std::numeric_limits<double>::infinity();
  double warmMs = std::numeric_limits<double>::infinity();
  double diskWarmMs = std::numeric_limits<double>::infinity();
  std::uint64_t failures = 0, coldHits = 0, warmMisses = 0, uncachedJobs = 0;
  std::size_t dedupedJobs = 0;
  bool stableIdentical = true;

  for (int round = 0; round < kRounds; ++round) {
    sfs::remove_all(cacheDir);
    artifact::ArtifactStore store(storeOpts);

    const auto coldStart = std::chrono::steady_clock::now();
    const SweepReport cold = artifact::runCachedSweep(jobs, opts, store);
    coldMs = std::min(coldMs, msSince(coldStart));

    // The repeated matrix against the same store: every job answers from
    // the in-memory hot layer without touching the scheduler.
    const auto warmStart = std::chrono::steady_clock::now();
    const SweepReport warm = artifact::runCachedSweep(jobs, opts, store);
    warmMs = std::min(warmMs, msSince(warmStart));

    // A fresh store on the same directory: the hot layer is empty, every
    // hit comes off disk — the cross-process warm start. Asserted for hit
    // count and byte-identical stable JSON; its wall clock is reported but
    // does not gate the speedup bar (parsing artifacts off disk is slower
    // than the hot layer yet still far cheaper than scheduling).
    const auto diskStart = std::chrono::steady_clock::now();
    artifact::ArtifactStore reopened(storeOpts);
    const SweepReport diskWarm =
        artifact::runCachedSweep(jobs, opts, reopened);
    diskWarmMs = std::min(diskWarmMs, msSince(diskStart));

    const std::string coldStable = cold.toJson(false).dump();
    stableIdentical = stableIdentical &&
                      coldStable == warm.toJson(false).dump() &&
                      coldStable == diskWarm.toJson(false).dump();
    failures += cold.failures + warm.failures + diskWarm.failures;
    coldHits += cold.cacheHits;
    warmMisses += warm.cacheMisses + diskWarm.cacheMisses;
    uncachedJobs += 2 * jobs.size() - warm.cacheHits - diskWarm.cacheHits;
    dedupedJobs = cold.dedupedJobs;
  }
  sfs::remove_all(cacheDir);

  const double speedup = warmMs > 0.0 ? coldMs / warmMs : 0.0;

  std::cout << "jobs: " << jobs.size() << " (deduped " << dedupedJobs
            << "), best of " << kRounds << " rounds\n"
            << "cold:      " << coldMs << " ms\n"
            << "warm:      " << warmMs << " ms  (" << speedup << "x)\n"
            << "disk-warm: " << diskWarmMs << " ms\n"
            << "stable JSON " << (stableIdentical ? "identical" : "DIVERGED")
            << "\n";

  BenchReport report("artifact_cache");
  // Deterministic, gated: cache traffic and correctness indicators. Any
  // growth in misses-on-warm, failures or stable-JSON divergence is a
  // regression of the caching layer itself.
  report.metric("failures", failures);
  report.metric("coldCacheHits", coldHits);
  report.metric("warmCacheMisses", warmMisses);
  report.metric("stableJsonDiverged",
                static_cast<std::uint64_t>(stableIdentical ? 0 : 1));
  report.metric("uncachedJobs", uncachedJobs);
  // Wall clock: warn-only.
  report.timing("coldMs", coldMs);
  report.timing("warmMs", warmMs);
  report.timing("diskWarmMs", diskWarmMs);
  report.info("jobs", std::to_string(jobs.size()));
  report.info("dedupedJobs", std::to_string(dedupedJobs));
  report.info("speedup", std::to_string(speedup) + "x");
  report.write();

  // The acceptance bar: a warm repeat of the matrix must be at least 5x
  // faster than the cold compile and byte-identical in its stable metrics
  // JSON, and a re-opened store must answer everything from disk.
  if (!stableIdentical) {
    std::cerr << "FAIL: stable JSON diverged between cold and warm runs\n";
    return 1;
  }
  if (uncachedJobs != 0) {
    std::cerr << "FAIL: warm runs missed the cache (" << uncachedJobs
              << " uncached jobs)\n";
    return 1;
  }
  if (speedup < 5.0) {
    std::cerr << "FAIL: warm run only " << speedup
              << "x faster than cold (need >= 5x)\n";
    return 1;
  }
  return 0;
}
