// Priority/analysis pass: mappability screening and run-state
// initialization (longest-path priorities §V-F, the dependence frontier,
// capped per-cycle resource maps, per-loop subtree lists, and the per-node
// fusable-writer and PE-order tables).
#pragma once

#include "sched/passes/run_state.hpp"

namespace cgra::passes {

/// Populates the RunState for a fresh run. Throws Unmappable when the
/// kernel contains an operation no PE of the composition supports.
/// `st.limit` and `st.costModel` must already be set.
void runAnalysisPass(const ArchModel& model, RunState& st);

}  // namespace cgra::passes
