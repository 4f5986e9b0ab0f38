// Priority/analysis pass: mappability screening and run-state
// initialization (the dependence frontier over the longest-path priorities
// of §V-F, capped per-cycle resource maps, per-loop subtree lists, the
// variable × loop write table, the condition-slot tables, and the per-node
// fusable-writer and PE-order tables).
#pragma once

#include "sched/passes/run_state.hpp"

namespace cgra::passes {

/// Populates the RunState for a fresh run. Throws Unmappable when the
/// kernel contains an operation no PE of the composition supports.
/// `st.limit`, `st.costModel` and `st.priorities` (the longest-path
/// weights `Cdfg::validate` returns) must already be set.
void runAnalysisPass(const ArchModel& model, RunState& st);

}  // namespace cgra::passes
