// Multi-schedule context memories (paper §IV-A.3): "Since the context
// memories can potentially hold multiple schedules, it is necessary to
// transfer the initial CCNT of a schedule."
//
// packSchedules places several independently scheduled kernels back to back
// in one shared context memory: each schedule is register-allocated on its
// own (runs never overlap in time and live-ins are re-transferred per
// invocation, so physical registers are freely reused across kernels), all
// context positions and branch targets are shifted by the kernel's start
// CCNT, and the per-kernel live-in/out bindings plus the start CCNT form
// the placement record the host transfers at invocation time (Fig. 6).
#pragma once

#include "ctx/contexts.hpp"
#include "sched/schedule.hpp"

namespace cgra {

/// Invocation record for one kernel inside a packed context memory.
struct SchedulePlacement {
  unsigned startCcnt = 0;  ///< transferred to the CCU before the run
  unsigned length = 0;     ///< run ends when the CCNT leaves the window
  std::vector<LiveBinding> liveIns;   ///< physical bindings
  std::vector<LiveBinding> liveOuts;  ///< physical bindings
};

/// A merged physical schedule plus the per-kernel placements.
struct PackedSchedules {
  Schedule merged;  ///< physical registers; empty global live bindings
  std::vector<SchedulePlacement> placements;
};

/// Packs virtual schedules into one context-memory image set; throws
/// cgra::Error when the merged schedule fails layers 1-2 of verifySchedule
/// (sched/validate.hpp), as when the combined length exceeds the
/// composition's context memory, or any kernel exceeds its register/C-Box
/// capacity.
PackedSchedules packSchedules(const std::vector<Schedule>& schedules,
                              const Composition& comp);

}  // namespace cgra
