// Exclusive per-pass wall-time attribution for one scheduling run
// (DESIGN.md §13).
//
// The nine passes of the pipeline do not run as sequential phases: a single
// placement probe dips into the cost model, routing, fusing and C-Box
// passes, and C-Box condition materialization recurses into itself for
// parent conditions. A naive inclusive timer would double-count every
// nested region, so the timer uses transition-based "lap" accounting: it
// keeps a stack of active passes plus the tick count of the last
// transition, and on every enter/exit charges the elapsed lap to the pass
// that was on top. Each tick of the run is attributed to exactly one
// pass — the innermost active scope — and the per-pass times sum to no
// more than the run's wall time regardless of nesting or recursion.
//
// Cost: the timer sits on the scheduler's hottest path. On perfbench's
// sweep workload a scheduling run opens about 980 scopes and reads the
// tick source about 1,440 times. Before the rules below, a run opened
// about 1,370 scopes and read steady_clock (about 40 ns through the vDSO
// on a 4-core Xeon VM) on every enter and exit, about 30% of the run.
// Three rules keep it cheap enough to stay on unconditionally (the
// breakdown is volatile metrics output, never part of the byte-stable
// report forms):
//   * laps count raw ticks — the time-stamp counter (`rdtsc`, unfenced) on
//     x86-64, steady_clock ticks elsewhere — and `flushInto` converts them
//     to nanoseconds once per run, with the ratio of the run's steady_clock
//     span to its tick span; a lap that reads backwards counts zero;
//   * entering the pass that is already innermost, or leaving back into the
//     same pass, reads no clock: the lap would be charged to that pass
//     either way (routing's nested resolvers, recursive ensureCondition);
//   * work that depends only on the run's inputs is done once in the
//     analysis pass (PE-order and fusable-writer tables), not per probe.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "sched/metrics.hpp"
#include "support/small_vector.hpp"

namespace cgra::passes {

/// The nine pipeline passes (DESIGN.md §11), in pipeline order.
enum class PassId : std::uint8_t {
  Analysis,   ///< priorities, attraction, loop subtrees, per-run tables
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

  /// Both clocks at the start of a run: the wall time `totalMs` spans and
  /// the tick count the per-run tick→ns ratio is measured from.
  struct Start {
    Clock::time_point wall;
    std::uint64_t ticks = 0;
  };

  static std::uint64_t ticks() {
#if defined(__x86_64__)
    return __rdtsc();
#else
    return static_cast<std::uint64_t>(
        Clock::now().time_since_epoch().count());
#endif
  }

  static Start start() { return Start{Clock::now(), ticks()}; }

  void enter(PassId p) {
    if (stack_.empty() || stack_.back() != p) charge(ticks());
    stack_.push_back(p);
  }

  void exit() {
    const PassId top = stack_.back();
    if (stack_.size() == 1 || stack_[stack_.size() - 2] != top)
      charge(ticks());
    stack_.pop_back();
  }

  /// Converts the accumulated ticks and writes the nine exclusive
  /// self-times into the run's metrics, plus the whole run's wall time
  /// since `start` as totalMs.
  void flushInto(SchedulerMetrics& m, const Start& start) const {
    const std::uint64_t end = ticks();
    const std::uint64_t tickSpan = end > start.ticks ? end - start.ticks : 0;
    const double wallNs = std::chrono::duration<double, std::nano>(
                              Clock::now() - start.wall)
                              .count();
    // Every lap lies inside the run's tick span, so scaling by it keeps
    // the pass sum within totalMs. A tick source that stepped backwards
    // mid-run can make later laps re-count the gap; dividing by the larger
    // of the two keeps the bound then too.
    std::uint64_t chargedTicks = 0;
    for (const std::uint64_t t : ticks_) chargedTicks += t;
    const std::uint64_t denom = std::max(tickSpan, chargedTicks);
    const double msPerTick = denom == 0 ? 0.0 : wallNs * 1e-6 / denom;
    const auto ms = [&](PassId p) {
      return static_cast<double>(ticks_[static_cast<std::size_t>(p)]) *
             msPerTick;
    };
    m.totalMs = wallNs * 1e-6;
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
  void charge(std::uint64_t now) {
    if (!stack_.empty() && now > lastMark_)
      ticks_[static_cast<std::size_t>(stack_.back())] += now - lastMark_;
    lastMark_ = now;
  }

  SmallVector<PassId, 16> stack_;  ///< active scopes, innermost last
  std::uint64_t lastMark_ = 0;
  std::uint64_t ticks_[static_cast<std::size_t>(PassId::kCount)] = {};
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
