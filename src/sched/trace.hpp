// Scheduler decision trace: the observability substrate behind
// `cgra-tool explain` and `--trace`.
//
// PR 1's SchedulerMetrics say *how much* work a run did; this layer says
// *why* each decision fell the way it did: which candidate was picked at
// which step (with its longest-path weight), which PE placements were
// probed and why each was rejected, where MOVE copies and CONST
// materializations were injected along the Floyd–Warshall paths (§V-D,
// §V-G), which pWRITEs fused into their producers (§V-E), how C-Box slots
// were allocated (§V-H), and where loops opened and closed (§V-C).
//
// Design constraints:
//  * Zero cost when disabled. Every instrumentation point is a macro that
//    compiles to a single null-pointer test (`if (sink)`); measured cost is
//    < 2% on the Table IV walltime bench.
//  * One preallocated ring buffer per scheduler run. The sweep engine runs
//    N jobs concurrently; each run owns its buffer, so worker threads never
//    contend and no locks appear on the scheduling hot path. On overflow
//    the ring keeps the most recent events (failures are diagnosed from the
//    tail) and counts what it dropped — emission never allocates.
//  * Deterministic. Events carry a logical sequence number and the
//    scheduler's own cycle counter, never wall-clock time, so the exported
//    trace of a run is byte-identical for any sweep thread count.
//
// Two exporters: Chrome trace-event JSON (load in Perfetto / chrome://
// tracing) and a human-readable `explain` listing that resolves node/PE ids
// against the CDFG and composition.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "json/json.hpp"

namespace cgra {

class Cdfg;
class Composition;

/// Trace configuration carried by a ScheduleRequest.
struct TraceOptions {
  /// Master switch: off ⇒ no buffer is allocated, no events are recorded
  /// and ScheduleReport::trace stays null.
  bool enabled = false;
  /// Ring capacity in events (preallocated up front). When a run emits
  /// more, the oldest events are overwritten and `droppedEvents()` counts
  /// the loss.
  std::size_t capacity = 1u << 16;
};

/// What happened. Grouped by the scheduler phase that emits it.
enum class TraceEventKind : std::uint8_t {
  PhaseBegin,         ///< detail = "setup" | "plan" | "finalize"
  PhaseEnd,           ///< detail mirrors the matching PhaseBegin
  StepBegin,          ///< a new context (cycle) opened; cycle = t
  CandidateSelected,  ///< node entered a placement round; a = weight×1000
  PlacementRejected,  ///< (node, pe) probe failed; reject = why
  NodePlaced,         ///< node committed on pe at cycle; a = duration
  CopyInserted,       ///< routing MOVE hop; a = source PE, b = dest vreg
  ConstInserted,      ///< CONST materialized on pe; a = value
  WriteFused,         ///< pWRITE a folded into producer node (§V-E)
  CBoxSlotAllocated,  ///< a = slot, b = condition id; detail = "status"|"and"
  LoopOpened,         ///< a = loop id; cycle = first context of the interval
  LoopClosed,         ///< a = loop id, b = back-branch context
  BranchPlaced,       ///< back-branch at cycle; a = target context
  Failure,            ///< run abandoned; reject/node describe the blocker
};

/// Why a (node, PE) placement probe was rejected.
enum class TraceReject : std::uint8_t {
  None,
  Incompatible,       ///< PE lacks the op / is not the variable's home PE
  PeBusy,             ///< PE occupied for the op's duration at this cycle
  CBoxWritePortBusy,  ///< status cycle already writes a C-Box slot (§V-H)
  PredUnavailable,    ///< condition not materializable / outPE wire taken
  OperandUnroutable,  ///< no reachable location or copy insertion failed
};

const char* traceEventName(TraceEventKind kind);
const char* traceRejectName(TraceReject reject);

/// Compile-time-checked annotation string. The consteval constructor only
/// accepts pointers that are constant expressions — in practice, string
/// literals — so no instrumentation point can ever hand the ring a pointer
/// into freed or mutated storage, and emission never needs to copy.
struct TraceLiteral {
  const char* str = "";
  TraceLiteral() = default;
  consteval TraceLiteral(const char* s) : str(s) {}

  /// Escape hatch for pointers the caller knows live in static storage
  /// (e.g. the enum name tables) but that are not constant expressions.
  static constexpr TraceLiteral fromStatic(const char* s) {
    TraceLiteral l;
    l.str = s;
    return l;
  }
};

/// One trace record. Fixed-size POD: emission is a bounds-checked store
/// into the preallocated ring, never an allocation. Field meaning varies by
/// kind (see TraceEventKind); unused fields stay at their defaults.
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::PhaseBegin;
  TraceReject reject = TraceReject::None;
  std::uint32_t seq = 0;    ///< logical timestamp, assigned by emit()
  std::uint32_t cycle = 0;  ///< scheduler step (context index)
  std::int32_t node = -1;   ///< CDFG node, -1 when not node-scoped
  std::int32_t pe = -1;     ///< PE, -1 when not PE-scoped
  std::int64_t a = 0;       ///< kind-specific payload
  std::int64_t b = 0;       ///< kind-specific payload
  TraceLiteral detail;      ///< static annotation (phase name, hop label)
};

/// Per-run decision log over a preallocated ring buffer.
class Trace {
public:
  explicit Trace(const TraceOptions& opts);

  /// Records one event; assigns the logical sequence number. O(1), no
  /// allocation; overwrites the oldest event when the ring is full.
  void emit(TraceEvent e);

  /// Events currently retained (≤ capacity).
  std::size_t size() const { return ring_.size(); }
  /// Events emitted over the run's lifetime.
  std::uint64_t totalEmitted() const { return totalEmitted_; }
  /// Events lost to ring wrap-around.
  std::uint64_t droppedEvents() const {
    return totalEmitted_ - static_cast<std::uint64_t>(ring_.size());
  }

  /// i-th retained event in emission order (0 = oldest retained).
  const TraceEvent& event(std::size_t i) const;

  /// Chrome trace-event JSON ("JSON object format"): `traceEvents` holds
  /// B/E phase spans and instant events with ts = logical sequence number
  /// (microseconds in the viewer). Deterministic: no wall-clock anywhere.
  /// `label` names the process in the viewer (e.g. "adpcm@mesh9").
  json::Value toChromeJson(const std::string& label) const;

  /// Human-readable decision log. `graph` and `comp` resolve node labels
  /// and op names; either may be null (ids are printed instead).
  std::string explain(const Cdfg* graph, const Composition* comp) const;

private:
  std::vector<TraceEvent> ring_;
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< next write position once the ring is full
  std::uint64_t totalEmitted_ = 0;
};

}  // namespace cgra

// Instrumentation macro. `sink` is a `Trace*` (null ⇒ disabled: the whole
// statement is one predictable branch). The remaining arguments are C++20
// designated initializers for TraceEvent, checked at compile time: the
// event kind must name a TraceEventKind enumerator and every field
// initializer must match a TraceEvent member in declaration order —
// mistyped fields or payloads fail the build instead of producing silently
// empty events.
//
//   CGRA_TRACE(trace_, NodePlaced,
//              .cycle = t, .node = int(id), .pe = int(pe), .a = dur);
#define CGRA_TRACE(sink, kindTok, ...)                                     \
  do {                                                                     \
    if ((sink) != nullptr) {                                               \
      _Pragma("GCC diagnostic push")                                       \
      _Pragma("GCC diagnostic ignored \"-Wmissing-field-initializers\"")   \
      (sink)->emit(::cgra::TraceEvent{                                     \
          .kind = ::cgra::TraceEventKind::kindTok, __VA_ARGS__});          \
      _Pragma("GCC diagnostic pop")                                        \
    }                                                                      \
  } while (false)
