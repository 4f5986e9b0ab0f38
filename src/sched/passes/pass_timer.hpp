// Exclusive per-pass wall-time attribution for one scheduling run
// (DESIGN.md §13).
//
// The nine passes of the pipeline do not run as sequential phases: a single
// placement probe dips into the cost model, routing, fusing and C-Box
// passes, and C-Box condition materialization recurses into itself for
// parent conditions. A naive inclusive timer would double-count every
// nested region, so the timer uses transition-based "lap" accounting: it
// keeps a stack of active passes plus the timestamp of the last
// transition, and on every enter/exit charges the elapsed lap to the pass
// that was on top. Each nanosecond of the run is attributed to exactly one
// pass — the innermost active scope — and the per-pass times sum to the
// instrumented wall time regardless of nesting or recursion.
//
// Cost: one steady_clock read per scope transition (~20 ns via vDSO, a
// handful of transitions per placement probe), cheap enough to stay on
// unconditionally — the breakdown is volatile metrics output, never part
// of the byte-stable report forms.
#pragma once

#include <chrono>
#include <cstdint>

#include "sched/metrics.hpp"
#include "support/clock.hpp"
#include "support/small_vector.hpp"

namespace cgra::passes {

/// The nine pipeline passes (DESIGN.md §11), in pipeline order.
enum class PassId : std::uint8_t {
  Analysis,   ///< priorities, attraction, loop subtrees
  Candidate,  ///< frontier snapshot for one planning sweep
  CostModel,  ///< attraction-based PE ordering + placement feedback
  Placement,  ///< planStep probe loop (self-time, minus nested passes)
  Routing,    ///< operand resolution, copy/const insertion
  Fusing,     ///< pWRITE folding into producers
  CBox,       ///< condition materialization + status slots
  Loop,       ///< loop closure, back-branches, copy invalidation
  Finalize,   ///< schedule finalize
  kCount,
};

class PassTimer {
public:
  using Clock = std::chrono::steady_clock;

  void enter(PassId p) {
    const Clock::time_point now = Clock::now();
    charge(now);
    stack_.push_back(p);
  }

  void exit() {
    const Clock::time_point now = Clock::now();
    charge(now);
    stack_.pop_back();
  }

  double ms(PassId p) const {
    return static_cast<double>(ns_[static_cast<std::size_t>(p)]) * 1e-6;
  }

  /// Copies the nine accumulated self-times into the run's metrics, plus
  /// the whole run's wall time since `runStart` as totalMs.
  void flushInto(SchedulerMetrics& m, Clock::time_point runStart) const {
    m.totalMs = msSince(runStart);
    m.passAnalysisMs = ms(PassId::Analysis);
    m.passCandidateMs = ms(PassId::Candidate);
    m.passCostModelMs = ms(PassId::CostModel);
    m.passPlacementMs = ms(PassId::Placement);
    m.passRoutingMs = ms(PassId::Routing);
    m.passFusingMs = ms(PassId::Fusing);
    m.passCboxMs = ms(PassId::CBox);
    m.passLoopMs = ms(PassId::Loop);
    m.passFinalizeMs = ms(PassId::Finalize);
  }

private:
  /// Charges the lap since the last transition to the innermost active
  /// pass (no-op between scopes — that time belongs to the pipeline
  /// driver: totalMs minus the pass sum).
  void charge(Clock::time_point now) {
    if (!stack_.empty())
      ns_[static_cast<std::size_t>(stack_.back())] +=
          static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(now -
                                                                   lastMark_)
                  .count());
    lastMark_ = now;
  }

  SmallVector<PassId, 16> stack_;  ///< active scopes, innermost last
  Clock::time_point lastMark_{};
  std::uint64_t ns_[static_cast<std::size_t>(PassId::kCount)] = {};
};

/// RAII pass scope. Takes a const RunState because several pass entry
/// points (fusing feasibility checks) are const over the run state; the
/// timer is `mutable` metrics bookkeeping, exempt from the probe
/// transactionality contract like the metrics counters and the trace.
class PassScope {
public:
  PassScope(PassTimer& timer, PassId p) : timer_(timer) { timer_.enter(p); }
  ~PassScope() { timer_.exit(); }

  PassScope(const PassScope&) = delete;
  PassScope& operator=(const PassScope&) = delete;

private:
  PassTimer& timer_;
};

}  // namespace cgra::passes
