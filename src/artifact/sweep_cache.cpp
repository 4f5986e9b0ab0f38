#include "artifact/sweep_cache.hpp"

#include <mutex>
#include <unordered_set>

namespace cgra::artifact {

SweepReport runCachedSweep(const std::vector<SweepJob>& jobs,
                           const SweepOptions& options, ArtifactStore& store) {
  const std::uint64_t evictionsBefore = store.counters().evictions;
  std::mutex hitMu;
  std::unordered_set<std::string> hitKeys;  ///< keys answered without a run

  SweepReport report = runSweep(
      jobs, options,
      [&](const SweepJob& job, const std::string& key,
          const std::function<ScheduleReport()>& schedule) {
        ScheduleReport run;  // this key's scheduler run; empty on a hit
        const auto [art, source] =
            store.resolve(key, *job.comp, *job.graph, [&] {
              run = schedule();
              return ScheduleArtifact::fromReport(key, run);
            });
        if (source == ArtifactStore::Source::Computed) return run;
        {
          const std::lock_guard<std::mutex> lock(hitMu);
          hitKeys.insert(key);
        }
        return static_cast<const ScheduleReport&>(*art);
      });

  // Count per job: a duplicate of a hit key is a hit, of a missed key a
  // miss. Malformed jobs (empty key) never reach the store.
  report.cacheEnabled = true;
  for (SweepJobResult& r : report.results) {
    if (r.cacheKey.empty()) continue;
    const bool hit = hitKeys.count(r.cacheKey) > 0;
    r.fromCache = r.fromCache || hit;
    ++(hit ? report.cacheHits : report.cacheMisses);
  }
  report.cacheEvictions = store.counters().evictions - evictionsBefore;
  return report;
}

}  // namespace cgra::artifact
