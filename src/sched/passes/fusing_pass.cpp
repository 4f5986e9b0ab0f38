#include "sched/passes/fusing_pass.hpp"

#include <algorithm>

namespace cgra::passes {

namespace {

NodeId fusableWriterOf(const Cdfg& g, NodeId id) {
  const Node& n = g.node(id);
  if (n.kind != NodeKind::Operation || !writesRegister(n.op)) return kNoNode;
  NodeId writer = kNoNode;
  for (const Edge& e : g.outEdges(id)) {
    if (e.kind != DepKind::Flow) continue;
    const Node& to = g.node(e.to);
    const bool consumesValue =
        to.isPWrite()
            ? to.operands[0] == Operand::node(id)
            : std::any_of(to.operands.begin(), to.operands.end(),
                          [&](const Operand& o) {
                            return o == Operand::node(id);
                          });
    if (!consumesValue) continue;  // pure ordering edge
    if (!to.isPWrite()) return kNoNode;  // value also read directly
    if (writer != kNoNode) return kNoNode;  // multiple writers
    writer = e.to;
  }
  // No loop test: lowering builds a value and the pWRITE consuming it in
  // one statement, hence one loop (kir/lower_cdfg.cpp).
  return writer;
}

}  // namespace

void computeFusableWriters(RunState& st) {
  PassScope scope(st.passTimer, PassId::Fusing);
  st.fusableWriter.assign(st.g.numNodes(), kNoNode);
  if (!st.opts.fuseWrites) return;
  for (NodeId id = 0; id < st.g.numNodes(); ++id)
    st.fusableWriter[id] = fusableWriterOf(st.g, id);
}

bool pWriteDepsMet(const RunState& st, NodeId writer, NodeId producer,
                   unsigned t) {
  PassScope scope(st.passTimer, PassId::Fusing);
  for (const Edge& e : st.g.inEdges(writer)) {
    if (e.from == producer) continue;
    if (!st.nodeScheduled[e.from]) return false;
    const unsigned c = e.kind == DepKind::Anti ? st.nodeStart[e.from]
                                               : st.nodeFinish[e.from];
    if (c > t) return false;
  }
  return true;
}

}  // namespace cgra::passes
