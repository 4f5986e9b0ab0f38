#include "sched/analysis.hpp"

#include <algorithm>
#include <map>
#include <cctype>
#include <sstream>

namespace cgra {

namespace {

char opSymbol(const ScheduledOp& op) {
  char c;
  if (producesStatus(op.op))
    c = '?';
  else if (isMemoryOp(op.op))
    c = 'd';
  else if (op.op == Op::IMUL)
    c = 'm';
  else if (op.op == Op::MOVE || op.op == Op::CONST)
    c = 'c';
  else
    c = 'a';
  return op.pred ? static_cast<char>(std::toupper(c)) : c;
}

}  // namespace

std::string ganttChart(const Schedule& sched, const Composition& comp) {
  std::ostringstream os;
  std::vector<std::string> rows(comp.numPEs(), std::string(sched.length, '.'));
  for (const ScheduledOp& op : sched.ops) {
    rows[op.pe][op.start] = opSymbol(op);
    for (unsigned c = op.start + 1; c <= op.lastCycle(); ++c)
      rows[op.pe][c] = '-';
  }
  for (PEId p = 0; p < comp.numPEs(); ++p)
    os << "PE" << p << (p < 10 ? "  |" : " |") << rows[p] << "|\n";

  std::string cbox(sched.length, '.');
  for (const CBoxOp& op : sched.cboxOps)
    cbox[op.time] = op.inputs.size() > 1 ? '&' : 's';
  os << "CBOX |" << cbox << "|\n";
  std::string ccu(sched.length, '.');
  for (const BranchOp& b : sched.branches) ccu[b.time] = '^';
  os << "CCU  |" << ccu << "|\n";

  // Loop intervals underneath, innermost-last for readability.
  for (const LoopInterval& li : sched.loops) {
    std::string row(sched.length, ' ');
    for (unsigned c = li.start; c <= li.end; ++c) row[c] = '=';
    row[li.start] = '[';
    row[li.end] = ']';
    os << "L" << li.loop << "   |" << row << "|\n";
  }
  return os.str();
}

std::vector<LoopMii> computeMiiBounds(const Cdfg& graph, const Schedule& sched,
                                      const Composition& comp) {
  std::vector<LoopMii> out;
  std::map<LoopId, LoopInterval> intervals;
  for (const LoopInterval& li : sched.loops) intervals[li.loop] = li;

  for (LoopId l = 1; l < graph.numLoops(); ++l) {
    LoopMii mii;
    mii.loop = l;
    if (const auto it = intervals.find(l); it != intervals.end())
      mii.achievedInterval = it->second.end - it->second.start + 1;

    // Direct members of this loop (nested loops pipeline separately).
    std::vector<NodeId> members;
    for (NodeId id = 0; id < graph.numNodes(); ++id)
      if (graph.node(id).loop == l) members.push_back(id);

    // ResMII per resource class.
    double aluWork = 0.0, mulWork = 0.0, memWork = 0.0, statusWork = 0.0;
    for (NodeId id : members) {
      const Node& n = graph.node(id);
      if (n.kind == NodeKind::PWrite) {
        aluWork += 1.0;  // a MOVE/CONST issue slot when not fused
        continue;
      }
      const double dur = defaultDuration(n.op);
      if (n.isMemory())
        memWork += dur;
      else if (n.isStatusProducer())
        statusWork += 1.0;
      else if (n.op == Op::IMUL)
        mulWork += dur;
      else
        aluWork += dur;
    }
    const double numPEs = comp.numPEs();
    const double mulPEs =
        std::max<std::size_t>(1, comp.pesSupporting(Op::IMUL).size());
    const double dmaPEs = std::max<std::size_t>(1, comp.dmaPEs().size());
    mii.resMii = std::max({(aluWork + mulWork + memWork) / numPEs,
                           mulWork / mulPEs, memWork / dmaPEs,
                           statusWork /* one status per cycle */});

    // RecMII: longest latency chain (Flow edges, within the loop) from any
    // reader of a loop-written variable to a pWRITE of that variable —
    // every loop-carried recurrence in this IR runs through a home register
    // with iteration distance 1.
    std::vector<double> longestTo(graph.numNodes(), -1.0);
    // Topological relaxation over members (ids ascend topologically within
    // a lowering, but be safe: iterate until fixpoint; graphs are small).
    bool changed = true;
    auto inLoop = [&](NodeId id) { return graph.node(id).loop == l; };
    // Seed: readers of loop-written variables.
    for (NodeId id : members) {
      const Node& n = graph.node(id);
      for (const Operand& o : n.operands)
        if (o.kind() == Operand::Kind::Variable &&
            graph.varWrittenInLoop(o.varId(), l))
          longestTo[id] = n.kind == NodeKind::Operation
                              ? defaultDuration(n.op)
                              : 1.0;
    }
    while (changed) {
      changed = false;
      for (NodeId id : members) {
        if (longestTo[id] < 0) continue;
        for (const Edge& e : graph.outEdges(id)) {
          if (e.kind != DepKind::Flow || !inLoop(e.to)) continue;
          const Node& to = graph.node(e.to);
          const double cost = to.kind == NodeKind::Operation
                                  ? defaultDuration(to.op)
                                  : 1.0;
          if (longestTo[id] + cost > longestTo[e.to]) {
            longestTo[e.to] = longestTo[id] + cost;
            changed = true;
          }
        }
      }
    }
    for (NodeId id : members)
      if (graph.node(id).isPWrite() &&
          graph.varWrittenInLoop(graph.node(id).var, l))
        mii.recMii = std::max(mii.recMii, longestTo[id]);
    mii.recMii = std::max(mii.recMii, 1.0);

    out.push_back(mii);
  }
  return out;
}

}  // namespace cgra
