// Scheduler metrics: counters and per-pass wall time of one scheduling run.
//
// The composition-sweep engine aggregates these across N (composition ×
// kernel) jobs and exports them as JSON (`cgra-tool sweep --metrics`), so
// many-config explorations can be profiled without re-instrumenting the
// scheduler: which pass the wall time goes to, how many candidate-loop
// iterations and rejected placement probes does a composition cost, how
// much copy/const/C-Box traffic it induces.
#pragma once

#include <cstdint>
#include <vector>

#include "json/json.hpp"
#include "sched/schedule.hpp"

namespace cgra {

/// Counters + timings of one scheduling run (or a merged aggregate).
struct SchedulerMetrics {
  // Work counters.
  std::uint64_t nodesScheduled = 0;     ///< CDFG nodes placed
  std::uint64_t copiesInserted = 0;     ///< routing MOVE ops
  std::uint64_t constsInserted = 0;     ///< CONST materializations
  std::uint64_t fusedWrites = 0;        ///< pWRITEs folded into producers
  std::uint64_t cboxOps = 0;            ///< C-Box context entries emitted
  std::uint64_t branches = 0;           ///< CCU back-branches emitted
  // Search-effort counters.
  std::uint64_t steps = 0;               ///< scheduling steps (contexts visited)
  std::uint64_t candidateIterations = 0; ///< candidate-loop iterations
  std::uint64_t placementAttempts = 0;   ///< candidate × PE placements tried
  std::uint64_t probeRejections = 0;     ///< probes rejected (rolled back)
  // Wall time (milliseconds), volatile: present in `--metrics` JSON,
  // excluded from the `--stable` form and zeroed in stored artifacts.
  // totalMs spans the whole run, from graph validation to the end of
  // finalize. The nine pass times are the PassTimer's exclusive self-times
  // (DESIGN.md §13): each nanosecond inside a pass scope is attributed to
  // exactly one pass (the innermost active one), so nested calls — a
  // placement probe dipping into routing, fusing and the C-Box — never
  // double-count. totalMs minus their sum is the pipeline driver's own
  // bookkeeping. Gateable via bench_compare --gate-timing.
  double totalMs = 0.0;
  double passAnalysisMs = 0.0;
  double passCandidateMs = 0.0;
  double passCostModelMs = 0.0;
  double passPlacementMs = 0.0;
  double passRoutingMs = 0.0;
  double passFusingMs = 0.0;
  double passCboxMs = 0.0;
  double passLoopMs = 0.0;
  double passFinalizeMs = 0.0;

  /// Number of runs merged into this aggregate (1 for a single run).
  std::uint64_t runs = 1;

  /// Element-wise accumulation (wall times add; `runs` adds).
  void merge(const SchedulerMetrics& other);

  /// Zeroes every wall-time field — exactly the keys `toJson(false)` omits
  /// — so what remains is a pure function of the scheduling inputs.
  void clearTimings();

  /// Flat JSON object, keys matching the field names above, built in
  /// sorted order.
  /// `includeTimings = false` omits the wall-time fields — the byte-stable
  /// form the sweep engine exports so reports diff cleanly across machines
  /// and thread counts.
  json::Value toJson(bool includeTimings = true) const;
};

/// The JSON layout of `m` (json.hpp): every counter and, with `timings`,
/// every wall time, in ascending key order. toJson runs it with
/// json::FieldEncoder, and artifacts read the counters back with
/// json::FieldDecoder, the two coders metrics.cpp instantiates it for.
template <class Coder, class Metrics>
void metricsFields(Coder& c, Metrics& m, bool timings);

/// The counters as one nested record, `toJson(false)`.
inline constexpr auto kCountersLayout = json::layout<11>(
    [](auto& c, auto& m) { metricsFields(c, m, /*timings=*/false); });

/// Static quality of one PE within a schedule.
struct PEQuality {
  PEId pe = 0;
  unsigned busyCycles = 0;   ///< contexts with an op in flight on this PE
  unsigned opsIssued = 0;
  unsigned insertedOps = 0;  ///< scheduler-inserted MOVE/CONST (node==kNoNode)
  double utilization = 0.0;  ///< busyCycles / schedule length
  /// Trailing contexts after this PE's last commit: length - 1 - lastCycle
  /// (== length for a PE with no ops). A zero-slack PE bounds the schedule —
  /// it is on the critical path.
  unsigned slack = 0;
};

/// Static schedule-quality metrics: what the schedule *shape* promises,
/// before any execution (contrast SimCounters, which reports what one run
/// *achieved* — a 10-context loop body iterated 400 times dominates runtime
/// utilization regardless of its share of the context memory).
struct ScheduleQuality {
  unsigned length = 0;  ///< contexts used
  unsigned numPEs = 0;
  unsigned totalOps = 0;
  unsigned insertedOps = 0;        ///< copies + const materializations
  unsigned fusedWrites = 0;        ///< from SchedulerMetrics when provided
  double staticUtilization = 0.0;  ///< mean per-PE busyCycles / length
  double contextOccupancy = 0.0;   ///< fraction of contexts issuing ≥ 1 op
  double copyRatio = 0.0;          ///< insertedOps / totalOps
  double fusedRatio = 0.0;         ///< fusedWrites / totalOps (0 if unknown)
  unsigned cboxSlotsUsed = 0;
  unsigned cboxBusyCycles = 0;     ///< contexts with a C-Box entry
  unsigned peakParallelism = 0;    ///< max ops in flight in one context
  std::vector<PEQuality> perPE;

  /// Nested JSON with lexicographically sorted keys (byte-stable).
  json::Value toJson() const;
};

/// Computes static quality metrics of `sched` on `comp`. `metrics` (when
/// available from the scheduling run) contributes the fused-write ratio,
/// which the schedule alone no longer records. Throws cgra::Error when the
/// schedule fails layers 1-2 of verifySchedule (sched/validate.hpp).
ScheduleQuality computeScheduleQuality(
    const Schedule& sched, const Composition& comp,
    const SchedulerMetrics* metrics = nullptr);

}  // namespace cgra
