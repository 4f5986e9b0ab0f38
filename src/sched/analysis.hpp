// Schedule analysis: a textual Gantt rendering and minimum-initiation-
// interval (MII) bounds per loop. Utilization statistics live in
// ScheduleQuality (sched/metrics.hpp).
//
// The MII analysis is the groundwork for the paper's future work ("we want
// to improve the scheduler to employ modulo scheduling", §VII): for every
// loop it computes the classic lower bounds
//  * ResMII — resource-constrained: for each resource class (ALU issue
//    slots, multiplier-capable PEs for IMUL, DMA ports for memory ops, the
//    C-Box's one-status-per-cycle port) the per-iteration demand divided by
//    the available capacity;
//  * RecMII — recurrence-constrained: the longest latency of a dependency
//    chain feeding a loop-carried variable write (distance 1 in this IR:
//    every loop-carried value flows through a variable's home register);
// and compares max(ResMII, RecMII) with the achieved interval length of the
// list schedule — the headroom modulo scheduling could reclaim.
#pragma once

#include <string>
#include <vector>

#include "sched/schedule.hpp"

namespace cgra {

/// Text Gantt chart: one row per PE, one column per context. `.` idle,
/// lowercase letter = op class (a=alu, c=const/move, m=mul, d=dma, ?=cmp),
/// uppercase marks predicated commits; C-Box and branch rows appended.
std::string ganttChart(const Schedule& sched, const Composition& comp);

/// MII bounds for one loop.
struct LoopMii {
  LoopId loop = kRootLoop;
  double resMii = 0.0;
  double recMii = 0.0;
  unsigned achievedInterval = 0;  ///< list-schedule interval length
  double mii() const { return std::max(resMii, recMii); }
  double headroom() const {
    return mii() > 0 ? achievedInterval / mii() : 0.0;
  }
};

/// Computes bounds for every loop of the graph against a schedule on `comp`.
std::vector<LoopMii> computeMiiBounds(const Cdfg& graph,
                                      const Schedule& sched,
                                      const Composition& comp);

}  // namespace cgra
