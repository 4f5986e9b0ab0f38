// The scheduler — the paper's primary contribution (§V).
//
// A list scheduler (Algorithm 1) extended with:
//  * longest-path-weight priorities (§V-F);
//  * loop-compatibility checks: every loop occupies a contiguous context
//    interval; an inner loop may only open on a context with no other
//    operation, and only once every predecessor of every loop node has
//    finished; outer-loop nodes wait until the inner loop closes (§V-C);
//  * speculation + predication: pWRITEs commit into a variable's home
//    register gated by a C-Box condition; wrong-path and dry-pass results
//    are dismissed (§V-B);
//  * fusing: reads are folded into consumers (operand resolution), and a
//    pWRITE is folded into its producer when the producer lands on the home
//    PE, the condition is already available and no other node consumes the
//    value (§V-E);
//  * data locality and routing awareness: an attraction criterion orders
//    PEs, operand accessibility is resolved by inserting MOVE copies along
//    Floyd–Warshall shortest paths into earlier idle cycles, and constants
//    are materialized per consuming PE (§V-D, §V-G);
//  * C-Box as a scheduled resource: at most one status consumed, one
//    condition write, one PE-predication read and one branch read per cycle;
//    nested conditions are conjunctions of a stored condition and a raw
//    status slot (§V-H).
//
// The implementation is an explicit pass pipeline (src/sched/passes/): each
// pass takes the shared immutable ArchModel — built once per composition —
// and a mutable RunState. Public API: build a ScheduleRequest, call
// Scheduler::schedule(request), inspect the ScheduleReport. Scheduling
// failures (a kernel the composition cannot execute) are *data* —
// ScheduleReport::failure carries a typed FailureReason — not exceptions;
// exceptions remain for programmer errors (malformed CDFGs, violated
// invariants).
#pragma once

#include <memory>
#include <string>

#include "cdfg/cdfg.hpp"
#include "sched/metrics.hpp"
#include "sched/schedule.hpp"
#include "sched/trace.hpp"

namespace cgra {

class ArchModel;

/// Knobs for ablation benches and tests.
struct SchedulerOptions {
  /// Order PEs by the attraction criterion (§V-G); off = index order.
  bool useAttraction = true;
  /// Fuse pWRITEs into producers when legal (§V-E).
  bool fuseWrites = true;
  /// Sort candidates by longest-path weight (§V-F); off = creation order.
  bool longestPathPriority = true;
  /// Context budget; 0 uses the composition's context memory length.
  unsigned maxContexts = 0;
};

/// Why a kernel could not be mapped. Facade-level classification: the sweep
/// engine tallies these per composition instead of string-matching
/// exception text.
enum class FailureReason : std::uint8_t {
  None,              ///< the run succeeded
  UnsupportedOp,     ///< no PE in the composition implements an operation
  UnroutableOperand, ///< an operand had no reachable/copyable location
  ContextBudget,     ///< the kernel does not fit the context memory budget
  CBoxCapacity,      ///< C-Box slot/port pressure blocked progress
  Internal,          ///< unexpected error escaped the run (a library bug)
};

inline constexpr std::size_t kNumFailureReasons = 6;

const char* failureReasonName(FailureReason reason);

/// Structured description of a scheduling failure.
struct ScheduleFailure {
  FailureReason reason = FailureReason::None;
  /// Human-readable message (what call sites using orThrow() see thrown).
  std::string message;
  /// The node that was stuck when the run gave up; kNoNode when the
  /// failure is not node-scoped (e.g. a whole-schedule budget overflow).
  NodeId node = kNoNode;
};

/// One scheduling request: the graph and the trace configuration. The
/// SchedulerOptions are the Scheduler's, set once in its constructor. The
/// pointed-to graph must outlive the schedule() call. Composition analysis
/// tables are not part of the request: the Scheduler holds its
/// composition's memoized ArchModel, so N concurrent scheduler instances
/// on one composition share one immutable copy automatically.
struct ScheduleRequest {
  ScheduleRequest() = default;
  explicit ScheduleRequest(const Cdfg& g) : graph(&g) {}

  /// The validated CDFG to map. Required.
  const Cdfg* graph = nullptr;
  /// Decision-trace configuration; disabled by default (zero cost).
  TraceOptions trace;
};

/// Everything a run produces, declared once: the schedule (its `length` is
/// the contexts used, its `cboxSlotsUsed` the C-Box slots), the per-run
/// SchedulerMetrics (inserted copies and consts, fused writes, search
/// effort, wall times), the decision trace (when requested) and structured
/// failure info. SweepJobResult and artifact::ScheduleArtifact extend it.
struct ScheduleReport {
  /// True when `schedule` is complete and valid. When false, `failure`
  /// says why, `schedule` is empty, and metrics/trace cover the partial
  /// run (that partial trace is exactly what `cgra-tool explain` prints
  /// for unmappable kernels).
  bool ok = false;
  Schedule schedule;
  SchedulerMetrics metrics;
  ScheduleFailure failure;
  /// Decision trace; null unless the request enabled tracing. One ring
  /// buffer per run — sweeps never share or contend on trace state.
  std::shared_ptr<const Trace> trace;

  /// Throws cgra::Error carrying `failure.message` when !ok; otherwise
  /// returns the report unchanged. Lets call sites that treat failure as
  /// exceptional stay one expression.
  const ScheduleReport& orThrow() const&;
  ScheduleReport&& orThrow() &&;
};

/// Maps a validated CDFG onto a composition.
class Scheduler {
public:
  /// Resolves the composition's ArchModel once (memoized per composition
  /// instance): repeated schedule() calls never recompute Floyd–Warshall
  /// or per-opcode support tables.
  Scheduler(const Composition& comp, SchedulerOptions opts = {});

  /// The canonical entry point. Never throws for unmappable kernels — the
  /// report carries the typed failure; throws only for programmer errors
  /// (null/malformed graph, violated internal invariants).
  ScheduleReport schedule(const ScheduleRequest& request) const;

  /// The immutable analysis bundle all runs of this scheduler share.
  const ArchModel& model() const { return *model_; }

private:
  const Composition* comp_;
  SchedulerOptions opts_;
  std::shared_ptr<const ArchModel> model_;
};

}  // namespace cgra
