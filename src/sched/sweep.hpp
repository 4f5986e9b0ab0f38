// Parallel composition-sweep engine.
//
// Many-config exploration — scheduling K kernels on C candidate
// compositions — is the dominant end-to-end workload of this toolflow
// (synthesis candidate ranking, Table/Fig. reproduction benches, the
// all-pairs correctness matrix). Each (composition × kernel) job is an
// independent pure function, so the engine runs N jobs concurrently on a
// std::thread pool, shares one immutable ArchModel per composition across
// all scheduler instances (see arch/arch_model.hpp), and aggregates the
// per-run SchedulerMetrics into a JSON-exportable report.
//
// Determinism: the scheduler is single-threaded per job and jobs share no
// mutable state, so the engine produces bit-identical schedules for any
// thread count; results are returned in job order. Tests assert equality of
// Schedule::fingerprint() across thread counts {1, 2, 8}.
#pragma once

#include <array>
#include <functional>
#include <string>
#include <vector>

#include "arch/composition.hpp"
#include "cdfg/cdfg.hpp"
#include "sched/metrics.hpp"
#include "sched/scheduler.hpp"

namespace cgra {

/// One (composition × kernel) scheduling job. The pointed-to composition
/// and graph must stay alive for the duration of the sweep.
struct SweepJob {
  const Composition* comp = nullptr;
  const Cdfg* graph = nullptr;
  /// Display label, e.g. "adpcm@mesh9" (defaults to the composition name).
  std::string label;
  SchedulerOptions options;
};

/// Outcome of one job: the job's ScheduleReport plus what the sweep adds.
/// `failure.reason` is None on success; a scheduling failure (unmappable
/// kernel, capacity exceeded) is recorded, not thrown, so one infeasible
/// pair cannot abort a sweep. `schedule` is empty when !ok or
/// !keepSchedules; `trace` is null unless SweepOptions::trace.enabled, and
/// null for a result served from a store. Each job owns its ring buffer —
/// worker threads never share trace state.
struct SweepJobResult : ScheduleReport {
  std::string label;
  /// Content hash of (composition, graph, options) — see sched/job_key.hpp.
  /// Identical keys mean bit-identical schedules; the sweep engine
  /// schedules each distinct key once and the artifact layer uses the same
  /// key for its persistent cache.
  std::string cacheKey;
  /// True when this result was copied from an identical job in the same
  /// sweep (in-sweep dedup) or served from a persistent artifact store.
  bool fromCache = false;
  unsigned contexts = 0;         ///< schedule.length when ok, kept always
  std::uint64_t fingerprint = 0; ///< Schedule::fingerprint() when ok
  /// Mean per-PE static utilization of the produced schedule (see
  /// computeScheduleQuality); 0 when !ok. Lets sweeps rank compositions by
  /// schedule quality, not just feasibility and context count.
  double staticUtilization = 0.0;
};

struct SweepOptions {
  /// Worker threads; 0 selects the hardware concurrency, 1 runs inline.
  unsigned threads = 0;
  /// Drop the (potentially large) schedules and keep only contexts and
  /// metrics — candidate ranking only needs lengths and fingerprints.
  bool keepSchedules = true;
  /// Per-job decision tracing (see sched/trace.hpp). Off by default.
  TraceOptions trace;
  /// When non-empty, write each job's Chrome trace-event JSON to
  /// `<traceDir>/<label>.trace.json` (label sanitized for the filesystem).
  /// Implies trace.enabled. Files are written serially after the sweep.
  std::string traceDir;
};

/// Sweep outcome: per-job results in job order plus merged metrics.
struct SweepReport {
  std::vector<SweepJobResult> results;
  SchedulerMetrics aggregate;  ///< merged over successful jobs
  double wallTimeMs = 0.0;
  unsigned threadsUsed = 1;
  std::size_t failures = 0;
  /// Failure tally by typed reason, indexed by FailureReason. A sweep over
  /// candidate compositions reads this to distinguish "too few contexts"
  /// from "missing op support" without string-matching messages.
  std::array<std::size_t, kNumFailureReasons> failuresByReason{};
  std::size_t routingCacheEntries = 0;  ///< distinct compositions seen
  /// ArchModel builds this sweep actually performed (vs. served memoized).
  /// Volatile by design: a composition whose model was already built by an
  /// earlier sweep or Scheduler contributes 0 here, so the field is only
  /// exported when `includeVolatile` — like the cache counters below.
  std::size_t archModelBuilds = 0;
  /// Wall time spent building ArchModels during the warm-up phase (ms).
  double archModelBuildMs = 0.0;
  /// Mean staticUtilization over successful jobs (0 when none succeeded).
  double meanStaticUtilization = 0.0;
  /// Jobs served by copying an identical job's result within this sweep
  /// (same cache key scheduled once). Deterministic for a given job list,
  /// so it appears in the stable JSON form.
  std::size_t dedupedJobs = 0;
  /// Persistent-cache traffic, filled by artifact::runCachedSweep and
  /// counted per job (a duplicate of a hit key is a hit, of a missed key a
  /// miss). Volatile by design (a warm run differs from a cold one), so
  /// these fields are only exported when `includeVolatile` — `--stable`
  /// metrics JSON stays byte-identical between cold and warm runs.
  bool cacheEnabled = false;
  std::size_t cacheHits = 0;
  std::size_t cacheMisses = 0;
  std::size_t cacheEvictions = 0;

  /// {"threads": .., "wallTimeMs": .., "aggregate": {...}, "jobs": [...]}
  /// — the `cgra-tool sweep --metrics` schema (see DESIGN.md). Keys are
  /// sorted at every level. `includeVolatile = false` omits the fields that
  /// legitimately vary run-to-run (thread count, every wall-time field), so
  /// the output is byte-stable across thread counts and machines; tests
  /// diff these bytes directly.
  json::Value toJson(bool includeVolatile = true) const;
};

/// The per-key step of a sweep: returns the report for `job`, whose key is
/// `key`, by calling `schedule()` or from elsewhere (artifact::runCachedSweep
/// answers from a persistent store, which verifies what it loads against
/// the job's composition and CDFG). Without one, the sweep calls
/// `schedule()` itself.
using SweepResolver = std::function<ScheduleReport(
    const SweepJob& job, const std::string& key,
    const std::function<ScheduleReport()>& schedule)>;

/// Schedules every job, `options.threads` at a time. Thread count affects
/// wall time only, never the schedules. `resolve`, when set, is called once
/// per distinct well-formed key on the worker thread; an exception it
/// throws fails the whole sweep.
SweepReport runSweep(const std::vector<SweepJob>& jobs,
                     const SweepOptions& options = {},
                     const SweepResolver& resolve = {});

}  // namespace cgra
