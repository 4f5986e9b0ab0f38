#include "sched/passes/pipeline.hpp"

#include <string>

#include "sched/passes/analysis_pass.hpp"
#include "sched/passes/cost_model.hpp"
#include "sched/passes/finalize_pass.hpp"
#include "sched/passes/loop_pass.hpp"
#include "sched/passes/placement_pass.hpp"
#include "sched/passes/run_state.hpp"

namespace cgra::passes {

namespace {

/// The run gave up (context budget exhausted). Classifies the failure by
/// the last recorded rejection of the first stuck node: a node that kept
/// failing operand resolution means the operand was unroutable; a node
/// starved of C-Box write ports means C-Box pressure; anything else —
/// including PredUnavailable, which is the ordinary transient state of a
/// predicated node waiting for its condition — is a budget overflow.
[[noreturn]] void failUnmappable(const RunState& st) {
  std::string stuck;
  unsigned count = 0;
  NodeId firstStuck = kNoNode;
  for (NodeId id = 0; id < st.g.numNodes(); ++id)
    if (!st.nodeScheduled[id]) {
      if (firstStuck == kNoNode) firstStuck = id;
      if (count++ >= 8) continue;
      const Node& n = st.g.node(id);
      stuck += " node" + std::to_string(id) + "(" +
               (n.isPWrite() ? "pWRITE " + st.g.variable(n.var).name
                             : std::string(opName(n.op))) +
               ")";
    }

  const TraceReject last =
      firstStuck == kNoNode ? TraceReject::None : st.lastReject[firstStuck];
  FailureReason reason = FailureReason::ContextBudget;
  if (last == TraceReject::OperandUnroutable)
    reason = FailureReason::UnroutableOperand;
  else if (last == TraceReject::CBoxWritePortBusy)
    reason = FailureReason::CBoxCapacity;
  throw Unmappable{
      ScheduleFailure{reason,
                      "kernel does not fit in " + std::to_string(st.limit) +
                          " contexts on " + st.comp.name() +
                          "; unscheduled:" + stuck,
                      firstStuck},
      last};
}

}  // namespace

ScheduleReport runPipeline(const ArchModel& model, const Composition& comp,
                           const SchedulerOptions& opts, const Cdfg& g,
                           Trace* trace) {
  // The PassTimer is the run's only clock: it attributes time to the nine
  // passes and, at flush, measures the whole run from this start.
  ScheduleReport report;
  const PassTimer::Start runStart = PassTimer::start();

  RunState st(comp, opts, g, trace);
  // Malformed graphs are programmer errors: validate() throws past the
  // report path on purpose. Its acyclicity pass computes the longest-path
  // weights, which are the run's priorities.
  st.priorities = g.validate();
  st.limit = opts.maxContexts ? opts.maxContexts : comp.contextMemoryLength();
  st.costModel = &attractionCostModel();

  // Tracks which phase span is open so a failed run still produces
  // balanced B/E pairs in the Chrome trace export.
  const char* openPhase = nullptr;
  try {
    openPhase = "setup";
    CGRA_TRACE(st.trace, PhaseBegin, .detail = "setup");
    {
      PassScope scope(st.passTimer, PassId::Analysis);
      runAnalysisPass(model, st);
    }
    CGRA_TRACE(st.trace, PhaseEnd, .detail = "setup");

    openPhase = "plan";
    CGRA_TRACE(st.trace, PhaseBegin, .detail = "plan");
    while (st.scheduledCount < g.numNodes() || st.loopStack.size() > 1) {
      if (st.t >= st.limit) failUnmappable(st);
      CGRA_TRACE(st.trace, StepBegin, .cycle = st.t);
      {
        PassScope scope(st.passTimer, PassId::Loop);
        tryCloseLoops(model, st);
      }
      {
        PassScope scope(st.passTimer, PassId::Placement);
        planStep(model, st);
      }
      ++st.metrics.steps;
      ++st.t;
    }
    CGRA_TRACE(st.trace, PhaseEnd, .detail = "plan");

    openPhase = "finalize";
    CGRA_TRACE(st.trace, PhaseBegin, .detail = "finalize");
    {
      PassScope scope(st.passTimer, PassId::Finalize);
      runFinalizePass(model, st);
    }
    CGRA_TRACE(st.trace, PhaseEnd, .detail = "finalize");
    openPhase = nullptr;
    report.ok = true;
  } catch (const Unmappable& u) {
    report.failure = u.failure;
    CGRA_TRACE(st.trace, Failure, .reject = u.lastReject, .cycle = st.t,
               .node = u.failure.node == kNoNode
                           ? -1
                           : static_cast<std::int32_t>(u.failure.node),
               .detail = TraceLiteral::fromStatic(
                   failureReasonName(u.failure.reason)));
    if (openPhase != nullptr)
      CGRA_TRACE(st.trace, PhaseEnd,
                 .detail = TraceLiteral::fromStatic(openPhase));
  }

  st.passTimer.flushInto(st.metrics, runStart);
  st.metrics.cboxOps = st.sched.cboxOps.size();
  st.metrics.branches = st.sched.branches.size();
  report.metrics = st.metrics;
  if (report.ok) report.schedule = std::move(st.sched);
  return report;
}

}  // namespace cgra::passes
