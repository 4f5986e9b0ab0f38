// Cache-aware sweep: runSweep with a persistent ArtifactStore in front.
//
// The sweep's per-key step goes through ArtifactStore::resolve, the store's
// one lookup-or-schedule path: a hit is rebuilt from the stored artifact
// without touching a scheduler, a miss is scheduled on the sweep's worker
// thread and published — successes and typed failures alike. Everything
// else (keying, in-sweep dedup, ArchModel warm-up, result order, trace
// files) is runSweep's own, so a cached sweep is a drop-in replacement for
// it: the `--stable` metrics JSON of a warm run is byte-identical to a cold
// one (artifacts store no wall times, and cache counters only appear in
// the volatile JSON section).
#pragma once

#include <vector>

#include "artifact/store.hpp"
#include "sched/sweep.hpp"

namespace cgra::artifact {

/// Runs `jobs` through `store`. Hit results carry `fromCache = true` and
/// no trace, so `options.traceDir` files are written for scheduled jobs
/// only. `report.cacheEnabled/cacheHits/cacheMisses/cacheEvictions` are
/// filled, hits and misses counted per job. A failed publish throws
/// cgra::Error.
SweepReport runCachedSweep(const std::vector<SweepJob>& jobs,
                           const SweepOptions& options, ArtifactStore& store);

}  // namespace cgra::artifact
