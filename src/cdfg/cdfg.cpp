#include "cdfg/cdfg.hpp"

#include <algorithm>
#include <functional>

#include "support/dot.hpp"

namespace cgra {

NodeId Cdfg::addNode(Node node) {
  nodes_.push_back(std::move(node));
  in_.emplace_back();
  out_.emplace_back();
  return static_cast<NodeId>(nodes_.size() - 1);
}

void Cdfg::addEdge(NodeId from, NodeId to, DepKind kind) {
  CGRA_ASSERT(from < nodes_.size() && to < nodes_.size());
  // Duplicate edges of the same kind are harmless but bloat analyses.
  for (const Edge& e : out_[from])
    if (e.to == to && e.kind == kind) return;
  const Edge e{from, to, kind};
  edges_.push_back(e);
  out_[from].push_back(e);
  in_[to].push_back(e);
}

VarId Cdfg::addVariable(Variable var) {
  vars_.push_back(std::move(var));
  return static_cast<VarId>(vars_.size() - 1);
}

CondId Cdfg::makeCondition(CondId parent, NodeId statusNode, bool polarity) {
  CGRA_ASSERT(parent < conds_.size());
  CGRA_ASSERT(statusNode < nodes_.size());
  for (CondId c = 1; c < conds_.size(); ++c)
    if (conds_[c].parent == parent && conds_[c].statusNode == statusNode &&
        conds_[c].polarity == polarity)
      return c;
  conds_.push_back(Condition{parent, statusNode, polarity});
  return static_cast<CondId>(conds_.size() - 1);
}

LoopId Cdfg::addLoop(Loop loop) {
  CGRA_ASSERT(loop.parent < loops_.size());
  loops_.push_back(std::move(loop));
  return static_cast<LoopId>(loops_.size() - 1);
}

std::vector<LoopId> Cdfg::loopAncestry(LoopId l) const {
  std::vector<LoopId> out;
  while (l != kRootLoop) {
    out.push_back(l);
    l = loops_[l].parent;
  }
  return out;
}

bool Cdfg::loopContains(LoopId outer, LoopId inner) const {
  while (true) {
    if (inner == outer) return true;
    if (inner == kRootLoop) return false;
    inner = loops_[inner].parent;
  }
}

unsigned Cdfg::loopDepth(LoopId l) const {
  unsigned d = 0;
  while (l != kRootLoop) {
    ++d;
    l = loops_[l].parent;
  }
  return d;
}

std::vector<LoopId> Cdfg::loopChildren(LoopId l) const {
  std::vector<LoopId> out;
  for (LoopId c = 1; c < loops_.size(); ++c)
    if (loops_[c].parent == l) out.push_back(c);
  return out;
}

std::vector<std::pair<NodeId, bool>> Cdfg::conditionLiterals(CondId c) const {
  std::vector<std::pair<NodeId, bool>> lits;
  while (c != kCondTrue) {
    lits.emplace_back(conds_[c].statusNode, conds_[c].polarity);
    c = conds_[c].parent;
  }
  std::reverse(lits.begin(), lits.end());
  return lits;
}

bool Cdfg::conditionImplies(CondId inner, CondId outer) const {
  while (true) {
    if (inner == outer) return true;
    if (inner == kCondTrue) return false;
    inner = conds_[inner].parent;
  }
}

bool Cdfg::varWrittenInLoop(VarId var, LoopId l) const {
  for (const Node& n : nodes_)
    if (n.isPWrite() && n.var == var && loopContains(l, n.loop)) return true;
  return false;
}

std::vector<double> Cdfg::longestPathWeights() const {
  // Reverse topological accumulation over the (acyclic) dependency graph.
  const std::size_t n = nodes_.size();
  std::vector<double> weight(n, 0.0);
  std::vector<unsigned> outDeg(n, 0);
  for (NodeId i = 0; i < n; ++i)
    outDeg[i] = static_cast<unsigned>(out_[i].size());

  std::vector<NodeId> ready;
  for (NodeId i = 0; i < n; ++i) {
    if (outDeg[i] == 0) {
      ready.push_back(i);
      weight[i] = nodes_[i].kind == NodeKind::Operation
                      ? defaultDuration(nodes_[i].op)
                      : 1.0;
    }
  }
  std::size_t processed = 0;
  while (!ready.empty()) {
    const NodeId id = ready.back();
    ready.pop_back();
    ++processed;
    for (const Edge& e : in_[id]) {
      const double ownCost = nodes_[e.from].kind == NodeKind::Operation
                                 ? defaultDuration(nodes_[e.from].op)
                                 : 1.0;
      const double edgeCost = e.kind == DepKind::Flow ? ownCost : 0.0;
      weight[e.from] = std::max(weight[e.from], weight[id] + edgeCost);
      if (--outDeg[e.from] == 0) ready.push_back(e.from);
    }
  }
  CGRA_ASSERT_MSG(processed == n, "dependency graph contains a cycle");
  return weight;
}

std::vector<NodeId> Cdfg::rootNodes() const {
  std::vector<NodeId> out;
  for (NodeId i = 0; i < nodes_.size(); ++i)
    if (in_[i].empty()) out.push_back(i);
  return out;
}

std::vector<double> Cdfg::validate() const {
  // Operand and id ranges.
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    if (n.loop >= loops_.size())
      throw Error("node " + std::to_string(id) + ": loop id out of range");
    if (n.cond >= conds_.size())
      throw Error("node " + std::to_string(id) + ": condition id out of range");
    for (const Operand& o : n.operands) {
      if (o.kind() == Operand::Kind::Node && o.nodeId() >= nodes_.size())
        throw Error("node " + std::to_string(id) + ": operand node out of range");
      if (o.kind() == Operand::Kind::Variable && o.varId() >= vars_.size())
        throw Error("node " + std::to_string(id) + ": operand variable out of range");
      if (o.kind() == Operand::Kind::Node &&
          nodes_[o.nodeId()].kind == NodeKind::PWrite)
        throw Error("node " + std::to_string(id) +
                    ": pWRITE results must be read through the variable");
      if (o.kind() == Operand::Kind::Node &&
          nodes_[o.nodeId()].isStatusProducer())
        throw Error("node " + std::to_string(id) +
                    ": status bits are not data operands");
    }
    if (n.kind == NodeKind::PWrite) {
      if (n.var >= vars_.size())
        throw Error("pWRITE " + std::to_string(id) + ": variable out of range");
      if (n.operands.size() != 1)
        throw Error("pWRITE " + std::to_string(id) + ": needs exactly 1 operand");
    } else {
      if (n.op == Op::NOP || n.op == Op::MOVE || n.op == Op::CONST)
        throw Error("node " + std::to_string(id) +
                    ": NOP/MOVE/CONST are scheduler-internal, not CDFG ops");
      const unsigned want = operandCount(n.op);
      if (n.operands.size() != want)
        throw Error("node " + std::to_string(id) + " (" + opName(n.op) +
                    "): expected " + std::to_string(want) + " operands, got " +
                    std::to_string(n.operands.size()));
    }
  }

  // Conditions reference status producers.
  for (CondId c = 1; c < conds_.size(); ++c) {
    const Condition& cond = conds_[c];
    if (cond.statusNode >= nodes_.size() ||
        !nodes_[cond.statusNode].isStatusProducer())
      throw Error("condition " + std::to_string(c) +
                  ": literal is not a comparison node");
    if (cond.parent >= conds_.size() || (cond.parent >= c))
      throw Error("condition " + std::to_string(c) + ": bad parent");
  }

  // Loop tree: parents precede children; controlling node inside the loop;
  // body condition extends entry condition.
  for (LoopId l = 1; l < loops_.size(); ++l) {
    const Loop& lp = loops_[l];
    if (lp.parent >= l)
      throw Error("loop " + std::to_string(l) + ": bad parent");
    if (lp.controllingNode == kNoNode ||
        lp.controllingNode >= nodes_.size() ||
        !nodes_[lp.controllingNode].isStatusProducer())
      throw Error("loop " + std::to_string(l) +
                  ": controlling node must be a comparison");
    if (nodes_[lp.controllingNode].loop != l)
      throw Error("loop " + std::to_string(l) +
                  ": controlling node must belong to the loop");
    if (!conditionImplies(lp.bodyCond, lp.entryCond))
      throw Error("loop " + std::to_string(l) +
                  ": body condition must extend the entry condition");
  }

  // Every predicated node's condition literals must be producible before the
  // node: there must be a Control edge from each literal's status node.
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    if (n.cond == kCondTrue) continue;
    for (const auto& [statusNode, pol] : conditionLiterals(n.cond)) {
      (void)pol;
      const auto& ins = in_[id];
      const bool found =
          std::any_of(ins.begin(), ins.end(), [&](const Edge& e) {
            return e.kind == DepKind::Control && e.from == statusNode;
          });
      if (!found)
        throw Error("node " + std::to_string(id) +
                    ": missing Control edge from status node " +
                    std::to_string(statusNode));
    }
  }

  // Acyclicity (longestPathWeights asserts internally; surface as Error).
  try {
    return longestPathWeights();
  } catch (const InternalError&) {
    throw Error("dependency graph contains a cycle");
  }
}

std::string Cdfg::toDot(const std::string& title) const {
  DotWriter dot(title);
  // Group nodes by loop using clusters, innermost loops nested.
  std::function<void(LoopId)> emitLoop = [&](LoopId l) {
    if (l != kRootLoop)
      dot.beginCluster("loop" + std::to_string(l),
                       loops_[l].label.empty() ? "loop " + std::to_string(l)
                                               : loops_[l].label);
    for (NodeId id = 0; id < nodes_.size(); ++id) {
      if (nodes_[id].loop != l) continue;
      const Node& n = nodes_[id];
      std::string label = n.isPWrite()
                              ? "pWRITE " + vars_[n.var].name
                              : std::string(opName(n.op));
      if (!n.label.empty()) label += "\\n" + n.label;
      dot.addNode("n" + std::to_string(id), label,
                  {{"shape", n.isPWrite() ? "box" : "ellipse"}});
    }
    for (LoopId c : loopChildren(l)) emitLoop(c);
    if (l != kRootLoop) dot.endCluster();
  };
  emitLoop(kRootLoop);

  for (const Edge& e : edges_) {
    std::map<std::string, std::string> attrs;
    switch (e.kind) {
      case DepKind::Flow: break;
      case DepKind::Anti:
        attrs["style"] = "dotted";
        attrs["color"] = "grey";
        break;
      case DepKind::Output:
        attrs["color"] = "grey";
        break;
      case DepKind::Control:
        attrs["style"] = "dashed";
        attrs["color"] = "red";
        break;
    }
    dot.addEdge("n" + std::to_string(e.from), "n" + std::to_string(e.to), attrs);
  }

  // Loop-carried variable dependencies (weight-1 edges in Fig. 11): a pWRITE
  // inside a loop feeding a variable operand of a node in the same loop that
  // is not ordered after it.
  for (NodeId w = 0; w < nodes_.size(); ++w) {
    if (!nodes_[w].isPWrite() || nodes_[w].loop == kRootLoop) continue;
    for (NodeId r = 0; r < nodes_.size(); ++r) {
      if (r == w || !loopContains(nodes_[w].loop, nodes_[r].loop)) continue;
      for (const Operand& o : nodes_[r].operands)
        if (o.kind() == Operand::Kind::Variable && o.varId() == nodes_[w].var) {
          const auto& ins = in_[r];
          const bool ordered =
              std::any_of(ins.begin(), ins.end(), [&](const Edge& e) {
                return e.from == w && e.kind == DepKind::Flow;
              });
          if (!ordered)
            dot.addEdge("n" + std::to_string(w), "n" + std::to_string(r),
                        {{"label", "1"}, {"constraint", "false"}});
        }
    }
  }
  return dot.str();
}

}  // namespace cgra
