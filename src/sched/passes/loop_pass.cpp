#include "sched/passes/loop_pass.hpp"

#include <algorithm>

#include "sched/passes/cbox_pass.hpp"

namespace cgra::passes {

namespace {

/// Pre-loop copies of variables rewritten inside a freshly opened loop
/// would not refresh per iteration; invalidate them for later readers.
void openLoopEffects(RunState& st, LoopId child) {
  const unsigned cap = st.t == 0 ? 0 : st.t - 1;
  for (VarId v = 0; v < st.g.numVariables(); ++v)
    if (st.loopWrites(child, v))
      for (Location& copy : st.varCopies[v])
        copy.validUntil = std::min(copy.validUntil, cap);
}

}  // namespace

bool loopPredsFinished(const RunState& st, LoopId l, unsigned t) {
  for (NodeId m : st.loopSubtree[l])
    for (const Edge& e : st.g.inEdges(m)) {
      if (st.g.loopContains(l, st.g.node(e.from).loop)) continue;  // internal
      if (!st.nodeScheduled[e.from]) return false;
      const unsigned constraint = e.kind == DepKind::Anti
                                      ? st.nodeStart[e.from]
                                      : st.nodeFinish[e.from];
      if (constraint > t) return false;
    }
  return true;
}

void tryCloseLoops(const ArchModel& model, RunState& st) {
  while (st.loopStack.size() > 1) {
    const OpenLoop& top = st.loopStack.back();
    const LoopId l = top.loop;

    bool allDone = true;
    unsigned lastCycle = top.start;
    for (NodeId m : st.loopSubtree[l]) {
      if (!st.nodeScheduled[m]) {
        allDone = false;
        break;
      }
      lastCycle = std::max(lastCycle, st.nodeFinish[m] - 1);
    }
    if (!allDone || lastCycle > st.t - 1 || st.t == 0) return;

    const Loop& loop = st.g.loop(l);
    const CondId bodyCond = loop.bodyCond;
    const auto pred = ensureCondition(model, st, bodyCond, st.t - 1);
    if (!pred) return;
    // One branch (and one branch-selection read) per context; the scan is
    // bounded by the context ceiling (a saturated branch unit yields
    // nullopt instead of growing the map indefinitely).
    const auto b = st.branchAt.firstFreeAtOrAfter(
        std::max(lastCycle, st.condSlots[bodyCond]->ready));
    // The branch must land strictly before the current step so outer
    // candidates can never share the back-branch context.
    if (!b || *b > st.t - 1) return;

    BranchOp br;
    br.time = *b;
    br.target = top.start;
    br.conditional = true;
    // bodyCond already encodes the continue polarity of the literal.
    br.pred = *pred;
    br.loop = l;
    st.sched.branches.push_back(br);
    st.branchAt.mark(*b);
    st.sched.loops.push_back(LoopInterval{l, top.start, *b});
    CGRA_TRACE(st.trace, BranchPlaced, .cycle = *b, .a = top.start);
    CGRA_TRACE(st.trace, LoopClosed, .cycle = st.t, .a = l, .b = *b);
    st.loopStack.pop_back();
  }
}

bool loopCompatible(const ArchModel& /*model*/, RunState& st, NodeId id) {
  const LoopId nodeLoop = st.g.node(id).loop;
  const LoopId cur = st.currentLoop();
  if (nodeLoop == cur) return true;
  if (!st.g.loopContains(cur, nodeLoop)) return false;  // outer/unrelated: wait

  // Descend one level at a time; each open requires an operation-free
  // context and all external predecessors of the whole subtree finished.
  while (st.currentLoop() != nodeLoop) {
    LoopId child = nodeLoop;
    while (st.g.loop(child).parent != st.currentLoop())
      child = st.g.loop(child).parent;
    if (st.stepHasOp) return false;
    if (!loopPredsFinished(st, child, st.t)) return false;
    st.loopStack.push_back(OpenLoop{child, st.t});
    CGRA_TRACE(st.trace, LoopOpened, .cycle = st.t, .a = child);
    openLoopEffects(st, child);
  }
  return true;
}

}  // namespace cgra::passes
