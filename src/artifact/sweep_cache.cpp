#include "artifact/sweep_cache.hpp"

#include <chrono>
#include <unordered_set>
#include <utility>

#include "arch/arch_model.hpp"
#include "support/clock.hpp"

namespace cgra::artifact {

namespace {

/// Rehydrates a SweepJobResult from a stored artifact. Fingerprint and
/// staticUtilization are recomputed from the deserialized schedule — not
/// copied — so a warm result is provably equivalent to a fresh one.
SweepJobResult resultFromArtifact(const SweepJob& job,
                                  const ScheduleArtifact& art,
                                  bool keepSchedule,
                                  const TraceOptions& trace) {
  SweepJobResult r;
  r.label = !job.label.empty() ? job.label : job.comp->name();
  r.cacheKey = art.key;
  r.fromCache = true;
  r.ok = art.ok;
  r.stats = art.stats;
  r.metrics = art.metrics;
  if (art.ok) {
    r.fingerprint = art.schedule.fingerprint();
    r.staticUtilization =
        computeScheduleQuality(art.schedule, *job.comp, &r.stats)
            .staticUtilization;
    if (keepSchedule) r.schedule = art.schedule;
  } else {
    r.failure = art.failure;
  }
  if (trace.enabled) {
    Trace t(trace);
    CGRA_TRACE(&t, CacheLookup, .detail = "hit");
    r.trace = std::make_shared<const Trace>(std::move(t));
  }
  return r;
}

/// Volatile wall times are zeroed so the artifact's content is a pure
/// function of the scheduling inputs.
ScheduleArtifact artifactFromResult(const SweepJobResult& r) {
  ScheduleArtifact art;
  art.key = r.cacheKey;
  art.ok = r.ok;
  art.stats = r.stats;
  art.metrics = r.metrics;
  art.metrics.clearTimings();
  if (r.ok) {
    art.schedule = r.schedule;
    art.fingerprint = r.fingerprint;
  } else {
    art.failure = r.failure;
  }
  return art;
}

}  // namespace

SweepReport runCachedSweep(const std::vector<SweepJob>& jobs,
                           const SweepOptions& options, ArtifactStore& store) {
  const auto wallStart = std::chrono::steady_clock::now();
  const std::uint64_t evictionsBefore = store.counters().evictions;

  SweepReport report;
  report.results.resize(jobs.size());
  report.cacheEnabled = true;

  TraceOptions trace = options.trace;
  if (!options.traceDir.empty()) trace.enabled = true;

  // Key every job (composition digests are memoized on the ArchModel, so
  // probing also warms the models the miss sweep will reuse) and probe the
  // store. Hits rehydrate in place; misses queue for the inner sweep.
  const std::uint64_t buildsBefore = ArchModel::buildsPerformed();
  const auto keyStart = std::chrono::steady_clock::now();
  std::vector<SweepJob> missJobs;
  std::vector<std::size_t> missIndex;  ///< miss position → job index
  std::size_t duplicateHits = 0;
  {
    const std::vector<std::string> keys = sweepJobKeys(jobs);
    std::unordered_set<std::string> seenKeys;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const std::string& key = keys[i];
      // An empty key marks a malformed job: uncacheable, and runJob
      // records its failure.
      const auto art = key.empty() ? nullptr : store.lookup(key);
      if (art == nullptr) {
        // A duplicate of a missed key also misses here (the first
        // occurrence is not inserted until after the inner sweep) and is
        // counted by the inner sweep's own dedup.
        missJobs.push_back(jobs[i]);
        missIndex.push_back(i);
        if (!key.empty()) ++report.cacheMisses;
        continue;
      }
      report.results[i] =
          resultFromArtifact(jobs[i], *art, options.keepSchedules, trace);
      ++report.cacheHits;
      // Keep dedupedJobs a pure function of the job list: a duplicate
      // served from the store on a warm run counts the same as one the
      // inner sweep deduped on the cold run — so the stable JSON of cold
      // and warm sweeps stays byte-identical.
      if (!seenKeys.insert(key).second) ++duplicateHits;
    }
  }
  const double keyMs = msSince(keyStart);

  // Schedule the misses on the regular engine. keepSchedules is forced on
  // so artifacts can be built; the caller's preference is applied after.
  SweepOptions inner = options;
  inner.keepSchedules = true;
  SweepReport missReport = runSweep(missJobs, inner);
  report.threadsUsed = missReport.threadsUsed;
  report.dedupedJobs = missReport.dedupedJobs + duplicateHits;

  // Like dedupedJobs, routingCacheEntries must not depend on cache warmth
  // (it lives in the stable JSON): report the distinct arch models of the
  // full job list — exactly what a cold runSweep counts — rather than the
  // inner sweep's miss-only tally. The volatile build counters cover the
  // whole cached sweep: keying above builds any model the memo was missing,
  // so the inner sweep's own tally alone would under-report.
  report.routingCacheEntries = countArchModels(jobs);
  report.archModelBuilds =
      static_cast<std::size_t>(ArchModel::buildsPerformed() - buildsBefore);
  report.archModelBuildMs = keyMs + missReport.archModelBuildMs;

  for (std::size_t m = 0; m < missIndex.size(); ++m) {
    SweepJobResult& r = missReport.results[m];
    // In-sweep duplicates share one artifact; empty keys are uncacheable
    // malformed jobs.
    if (!r.fromCache && !r.cacheKey.empty())
      store.insert(
          std::make_shared<const ScheduleArtifact>(artifactFromResult(r)));
    if (!options.keepSchedules) r.schedule = Schedule{};
    report.results[missIndex[m]] = std::move(r);
  }
  report.tallyResults();

  report.cacheEvictions = store.counters().evictions - evictionsBefore;
  report.wallTimeMs = msSince(wallStart);
  return report;
}

}  // namespace cgra::artifact
