#include "sched/job_key.hpp"

#include "arch/arch_model.hpp"
#include "arch/composition.hpp"
#include "support/sha256.hpp"

namespace cgra {

namespace {

/// Digests every CDFG field that can influence scheduling, in a fixed
/// declaration order. Structure markers (section tags) keep distinct shapes
/// from colliding by concatenation (e.g. one node with two operands vs. two
/// nodes with one).
void hashCdfg(Sha256& h, const Cdfg& g) {
  h.update("nodes:");
  h.updateU64(g.numNodes());
  for (NodeId id = 0; id < g.numNodes(); ++id) {
    const Node& n = g.node(id);
    h.updateU64(static_cast<std::uint64_t>(n.kind));
    h.updateU64(static_cast<std::uint64_t>(n.op));
    h.updateU64(n.var);
    h.updateU64(n.cond);
    h.updateU64(n.loop);
    h.updateU64(n.operands.size());
    for (const Operand& op : n.operands) {
      h.updateU64(static_cast<std::uint64_t>(op.kind()));
      switch (op.kind()) {
        case Operand::Kind::Node: h.updateU64(op.nodeId()); break;
        case Operand::Kind::Variable: h.updateU64(op.varId()); break;
        case Operand::Kind::Immediate:
          h.updateU64(static_cast<std::uint32_t>(op.imm()));
          break;
      }
    }
    h.updateU64(n.label.size());
    h.update(n.label);
  }
  h.update("edges:");
  h.updateU64(g.edges().size());
  for (const Edge& e : g.edges()) {
    h.updateU64(e.from);
    h.updateU64(e.to);
    h.updateU64(static_cast<std::uint64_t>(e.kind));
  }
  h.update("vars:");
  h.updateU64(g.numVariables());
  for (VarId v = 0; v < g.numVariables(); ++v) {
    const Variable& var = g.variable(v);
    h.updateU64(var.name.size());
    h.update(var.name);
    h.updateU64(var.liveIn ? 1 : 0);
    h.updateU64(var.liveOut ? 1 : 0);
    h.updateU64(static_cast<std::uint32_t>(var.initialValue));
  }
  h.update("conds:");
  h.updateU64(g.numConditions());
  for (CondId c = 0; c < g.numConditions(); ++c) {
    const Condition& cond = g.condition(c);
    h.updateU64(cond.parent);
    h.updateU64(cond.statusNode);
    h.updateU64(cond.polarity ? 1 : 0);
  }
  h.update("loops:");
  h.updateU64(g.numLoops());
  for (LoopId l = 0; l < g.numLoops(); ++l) {
    const Loop& loop = g.loop(l);
    h.updateU64(loop.parent);
    h.updateU64(loop.controllingNode);
    h.updateU64(loop.continueWhen ? 1 : 0);
    h.updateU64(loop.entryCond);
    h.updateU64(loop.bodyCond);
    h.updateU64(loop.label.size());
    h.update(loop.label);
  }
}

void hashOptions(Sha256& h, const SchedulerOptions& o) {
  h.update("opts:");
  h.updateU64(o.useAttraction ? 1 : 0);
  h.updateU64(o.fuseWrites ? 1 : 0);
  h.updateU64(o.longestPathPriority ? 1 : 0);
  h.updateU64(o.maxContexts);
}

}  // namespace

std::string compositionDigest(const Composition& comp) {
  return ArchModel::digestOf(comp);
}

std::string cdfgDigest(const Cdfg& graph) {
  Sha256 h;
  hashCdfg(h, graph);
  return h.hex();
}

std::string scheduleJobKeyWithDigests(const std::string& compDigest,
                                      const std::string& cdfgDigest,
                                      const SchedulerOptions& options,
                                      const std::string& salt) {
  Sha256 h;
  h.update("salt:");
  h.update(salt);
  h.update("comp-digest:");
  h.update(compDigest);
  h.update("cdfg-digest:");
  h.update(cdfgDigest);
  hashOptions(h, options);
  return h.hex();
}

std::string scheduleJobKey(const Composition& comp, const Cdfg& graph,
                           const SchedulerOptions& options,
                           const std::string& salt) {
  return scheduleJobKeyWithDigests(ArchModel::digestOf(comp),
                                   cdfgDigest(graph), options, salt);
}

}  // namespace cgra
