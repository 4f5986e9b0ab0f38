#include "sched/passes/finalize_pass.hpp"

#include <algorithm>
#include <string>

namespace cgra::passes {

void runFinalizePass(const ArchModel& /*model*/, RunState& st) {
  unsigned maxCycle = 0;
  for (const ScheduledOp& op : st.sched.ops)
    maxCycle = std::max(maxCycle, op.lastCycle());
  for (const CBoxOp& op : st.sched.cboxOps)
    maxCycle = std::max(maxCycle, op.time);
  for (const BranchOp& b : st.sched.branches)
    maxCycle = std::max(maxCycle, b.time);
  st.sched.length = maxCycle + 1;
  if (st.sched.length > st.limit)
    throw Unmappable{
        ScheduleFailure{FailureReason::ContextBudget,
                        "schedule length " + std::to_string(st.sched.length) +
                            " exceeds context memory of " + st.comp.name(),
                        kNoNode},
        TraceReject::None};

  st.sched.vregsPerPE = st.nextVreg;
  st.sched.cboxSlotsUsed = st.nextCondSlot;

  for (VarId v = 0; v < st.g.numVariables(); ++v) {
    if (!st.varHomes[v]) continue;
    st.sched.varHomes.push_back(
        LiveBinding{v, st.varHomes[v]->pe, st.varHomes[v]->vreg});
    if (st.g.variable(v).liveOut)
      st.sched.liveOuts.push_back(
          LiveBinding{v, st.varHomes[v]->pe, st.varHomes[v]->vreg});
  }
}

}  // namespace cgra::passes
