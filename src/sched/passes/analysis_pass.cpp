#include "sched/passes/analysis_pass.hpp"

#include "sched/passes/cost_model.hpp"
#include "sched/passes/fusing_pass.hpp"

namespace cgra::passes {

namespace {

/// Rejects kernels containing an operation no PE supports.
void checkMappable(const ArchModel& model, const RunState& st) {
  for (NodeId id = 0; id < st.g.numNodes(); ++id) {
    const Node& n = st.g.node(id);
    if (n.kind != NodeKind::Operation) continue;
    if (model.supportingPEs[static_cast<unsigned>(n.op)].empty())
      throw Unmappable{
          ScheduleFailure{FailureReason::UnsupportedOp,
                          "composition " + st.comp.name() +
                              " has no PE supporting " +
                              std::string(opName(n.op)),
                          id},
          TraceReject::Incompatible};
  }
}

void initState(RunState& st) {
  const std::size_t numNodes = st.g.numNodes();
  const unsigned numPEs = st.comp.numPEs();

  st.attraction.assign(numNodes * numPEs, 0.0);
  st.nodeStart.assign(numNodes, 0);
  st.nodeFinish.assign(numNodes, 0);
  st.nodeScheduled.assign(numNodes, false);
  st.lastReject.assign(numNodes, TraceReject::None);
  st.lastRejectStep.assign(numNodes, static_cast<unsigned>(-1));
  st.remainingPreds.assign(numNodes, 0);
  for (NodeId id = 0; id < numNodes; ++id)
    st.remainingPreds[id] = static_cast<unsigned>(st.g.inEdges(id).size());
  st.candidates.reserve(numNodes);
  st.scratchCandidates.reserve(numNodes);
  for (NodeId id = 0; id < numNodes; ++id)
    if (st.remainingPreds[id] == 0) st.insertCandidate(id);

  // Every node lands in the op stream, most with a few routed copies and
  // const materializations around them; reserving up front removes the
  // ScheduledOp reallocation churn the profile attributed to push_back.
  st.sched.ops.reserve(numNodes * 2);

  // Hard ceiling for every per-cycle resource map: the context budget. A
  // schedule cycle at or beyond the ceiling can never execute (finalize
  // rejects such schedules), so probes treat it as permanently occupied —
  // resource scans are bounded and can never resize unboundedly.
  const unsigned ceiling = st.limit;
  st.nextVreg.assign(numPEs, 0);
  st.peBusy.assign(numPEs, CycleOccupancy(ceiling));
  st.outPort.assign(numPEs, CycleSlots<unsigned>(ceiling));
  st.cboxOpAt = CycleOccupancy(ceiling);
  st.predUse = CycleSlots<PredRef>(ceiling);
  st.branchAt = CycleOccupancy(ceiling);
  st.varHomes.assign(st.g.numVariables(), std::nullopt);
  st.varCopies.assign(st.g.numVariables(), {});
  st.nodeLocs.assign(numNodes, {});
  st.condSlots.assign(st.g.numConditions(), std::nullopt);
  st.rawSlots.assign(numNodes, std::nullopt);

  // Subtree node lists per loop (loop-compatibility checks), and which
  // loops write each variable: a pWRITE writes its variable in its own
  // loop and in every loop around it.
  const std::size_t numLoops = st.g.numLoops();
  st.loopSubtree.assign(numLoops, {});
  st.varWritten.assign(st.g.numVariables() * numLoops, 0);
  for (NodeId id = 0; id < numNodes; ++id) {
    const Node& n = st.g.node(id);
    for (LoopId l = n.loop;; l = st.g.loop(l).parent) {
      st.loopSubtree[l].push_back(id);
      if (n.isPWrite()) st.varWritten[n.var * numLoops + l] = 1;
      if (l == kRootLoop) break;
    }
  }

  st.loopStack.push_back(OpenLoop{kRootLoop, 0});
}

}  // namespace

void runAnalysisPass(const ArchModel& model, RunState& st) {
  checkMappable(model, st);
  initState(st);
  // Per-run tables the placement probes read instead of recomputing.
  computeFusableWriters(st);
  st.costModel->initOrders(model, st);
}

}  // namespace cgra::passes
