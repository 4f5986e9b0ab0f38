// Per-job setup cost through the shared ArchModel: a 64-job sweep over ONE
// composition must build the model's Floyd–Warshall / support tables
// exactly once and amortize it across every job — the guarantee the pass
// pipeline's `ArchModel::get` memoization provides. The bench gates the
// deterministic counters (builds performed, failures, dedup) via
// tools/bench_compare.py; wall-clock (one standalone model build vs. the
// per-job setup that remains) lands in the warn-only timings section.
#include <algorithm>
#include <chrono>
#include <deque>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "arch/arch_model.hpp"
#include "bench_common.hpp"
#include "sched/sweep.hpp"

namespace {

using namespace cgra;
using namespace cgra::bench;

constexpr int kRounds = 3;
constexpr unsigned kJobs = 64;

}  // namespace

int main() {
  // 64 jobs on one mesh9: four kernel families. Each job gets a distinct
  // (ample) context budget so every job key is unique — the sweep really
  // schedules 64 times instead of deduping structurally equal kernels, and
  // the per-job setup figure averages over all of them.
  const Composition comp = makeMesh(9);
  const Cdfg adpcm = kir::lowerToCdfg(apps::makeAdpcm(8, 1).fn).graph;
  const Cdfg gcd = kir::lowerToCdfg(apps::makeGcd(546, 2394).fn).graph;
  const Cdfg dot = kir::lowerToCdfg(apps::makeDotProduct(4, 1).fn).graph;
  const Cdfg fir = kir::lowerToCdfg(apps::makeFir(8, 3).fn).graph;

  std::vector<SweepJob> jobs;
  for (unsigned i = 0; i < kJobs; ++i) {
    const Cdfg* g = nullptr;
    const char* name = "";
    switch (i % 4) {
      case 0: g = &adpcm; name = "adpcm"; break;
      case 1: g = &gcd; name = "gcd"; break;
      case 2: g = &dot; name = "dot"; break;
      default: g = &fir; name = "fir"; break;
    }
    SchedulerOptions options;
    options.maxContexts = 100 + i;  // unique key, budget far above any need
    jobs.push_back(
        SweepJob{&comp, g, std::string(name) + std::to_string(i), options});
  }

  // Standalone model cost: what every job used to pay per run before the
  // shared model (Floyd–Warshall + per-opcode support + digest).
  double modelBuildMs = std::numeric_limits<double>::infinity();
  for (int r = 0; r < kRounds; ++r) {
    const auto start = std::chrono::steady_clock::now();
    const ArchModel m = ArchModel::build(comp);
    modelBuildMs = std::min(modelBuildMs, msSince(start));
    if (m.numPEs() != comp.numPEs()) return 1;  // keep the build observable
  }

  SweepOptions opts;
  opts.threads = 2;
  opts.keepSchedules = false;

  // First sweep on this composition instance: exactly one build.
  const std::uint64_t buildsBefore = ArchModel::buildsPerformed();
  const SweepReport first = runSweep(jobs, opts);
  const std::uint64_t firstBuilds = ArchModel::buildsPerformed() - buildsBefore;

  double sweepMs = first.wallTimeMs;
  std::uint64_t failures = first.failures;
  std::uint64_t warmBuilds = 0;
  for (int r = 1; r < kRounds; ++r) {
    const std::uint64_t before = ArchModel::buildsPerformed();
    const SweepReport rep = runSweep(jobs, opts);
    warmBuilds += ArchModel::buildsPerformed() - before;
    failures += rep.failures;
    sweepMs = std::min(sweepMs, rep.wallTimeMs);
  }

  const double setupPerJobMs =
      first.aggregate.runs > 0
          ? first.aggregate.passAnalysisMs / first.aggregate.runs
          : 0.0;

  std::cout << "jobs: " << jobs.size() << " on " << comp.name()
            << " (deduped " << first.dedupedJobs << ")\n"
            << "model build (standalone): " << modelBuildMs << " ms\n"
            << "model builds in first sweep: " << firstBuilds
            << " (reported " << first.archModelBuilds << ", "
            << first.archModelBuildMs << " ms)\n"
            << "model builds in warm sweeps: " << warmBuilds << "\n"
            << "sweep: " << sweepMs << " ms, per-job setup "
            << setupPerJobMs << " ms\n";

  BenchReport report("arch_model");
  // Deterministic, gated: one build for 64 jobs, none on repeats, no
  // scheduling failures, stable dedup count.
  report.metric("archModelBuildsFirstSweep", firstBuilds);
  report.metric("archModelBuildsWarmSweeps", warmBuilds);
  report.metric("failures", failures);
  report.metric("dedupedJobs", first.dedupedJobs);
  report.metric("jobs", static_cast<std::uint64_t>(jobs.size()));
  // Wall clock: warn-only.
  report.timing("modelBuildMs", modelBuildMs);
  report.timing("sweepWallMs", sweepMs);
  report.timing("setupPerJobMs", setupPerJobMs);
  report.timing("reportedModelBuildMs", first.archModelBuildMs);
  report.info("composition", comp.name());
  report.write();

  if (firstBuilds != 1 || first.archModelBuilds != 1) {
    std::cerr << "FAIL: expected exactly one ArchModel build for the 64-job "
                 "single-composition sweep (got "
              << firstBuilds << ", reported " << first.archModelBuilds
              << ")\n";
    return 1;
  }
  if (warmBuilds != 0) {
    std::cerr << "FAIL: repeated sweeps rebuilt the model " << warmBuilds
              << " time(s)\n";
    return 1;
  }
  if (failures != 0) {
    std::cerr << "FAIL: " << failures << " scheduling failure(s)\n";
    return 1;
  }
  return 0;
}
