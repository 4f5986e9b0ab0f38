#include "sched/validate.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <utility>

#include "support/assert.hpp"

namespace cgra {

namespace {

struct Verifier {
  const Schedule& s;
  std::vector<std::string> issues;

  template <typename... Args>
  void issue(Args&&... args) {
    std::ostringstream os;
    (os << ... << args);
    issues.push_back(os.str());
  }

  // -- layer 1: bounds -----------------------------------------------------

  bool vregOk(PEId pe, unsigned vreg) const {
    return pe < s.vregsPerPE.size() && vreg < s.vregsPerPE[pe];
  }
  bool slotOk(unsigned slot) const { return slot < s.cboxSlotsUsed; }

  void checkBounds() {
    for (const ScheduledOp& op : s.ops) {
      if (op.pe >= s.vregsPerPE.size())
        issue("op at t", op.start, " on invalid PE ", op.pe);
      if (op.duration == 0)
        issue("zero-duration op at t", op.start);
      else if (op.start >= s.length || op.duration > s.length - op.start)
        issue("op at t", op.start, " outside the context range");
      if (static_cast<unsigned>(op.op) >= kNumOps)
        issue("invalid opcode at t", op.start);
      if (op.writesDest && !vregOk(op.pe, op.destVreg))
        issue("op at t", op.start, " writes register ", op.destVreg,
              " out of range");
      if (op.pred && !slotOk(op.pred->slot))
        issue("op at t", op.start, " reads condition slot ", op.pred->slot,
              " out of range");
      for (const OperandSource& src : op.src) {
        if (src.kind == OperandSource::Kind::Own && !vregOk(op.pe, src.vreg))
          issue("op at t", op.start, " reads register ", src.vreg,
                " out of range");
        if (src.kind == OperandSource::Kind::Route &&
            !vregOk(src.srcPE, src.vreg))
          issue("op at t", op.start, " routes register ", src.vreg,
                " of PE ", src.srcPE, " out of range");
      }
    }
    for (const CBoxOp& op : s.cboxOps) {
      if (op.time >= s.length)
        issue("C-Box op at t", op.time, " outside the context range");
      if (!slotOk(op.writeSlot))
        issue("C-Box op at t", op.time, " writes slot ", op.writeSlot,
              " out of range");
      unsigned statuses = 0;
      for (const CBoxOp::Input& in : op.inputs) {
        if (in.kind == CBoxOp::Input::Kind::Status)
          ++statuses;
        else if (!slotOk(in.slot))
          issue("C-Box op at t", op.time, " reads slot ", in.slot,
                " out of range");
      }
      if (op.inputs.empty() || op.inputs.size() > 2)
        issue("C-Box op at t", op.time, " has ", op.inputs.size(), " inputs");
      if (statuses > 1)
        issue("C-Box op at t", op.time, " consumes two statuses");
    }
    for (const BranchOp& b : s.branches) {
      if (b.time >= s.length)
        issue("branch at t", b.time, " outside the context range");
      if (b.target >= s.length)
        issue("branch at t", b.time, " targets t", b.target, " out of range");
      if (b.conditional && !slotOk(b.pred.slot))
        issue("branch at t", b.time, " reads slot ", b.pred.slot,
              " out of range");
    }
    for (const LoopInterval& l : s.loops)
      if (l.start > l.end || l.end >= s.length)
        issue("loop ", l.loop, " interval [", l.start, ",", l.end,
              "] outside the context range");
    for (const auto* bindings : {&s.liveIns, &s.liveOuts, &s.varHomes})
      for (const LiveBinding& lb : *bindings)
        if (!vregOk(lb.pe, lb.vreg))
          issue("binding of variable ", lb.var, " to PE ", lb.pe,
                " register ", lb.vreg, " out of range");
  }

  // -- layer 2: fit and exclusivity -----------------------------------------

  void checkFit(const Composition& comp) {
    if (s.vregsPerPE.size() != comp.numPEs())
      issue("schedule has ", s.vregsPerPE.size(), " PEs, ", comp.name(),
            " has ", comp.numPEs());
    if (s.length > comp.contextMemoryLength())
      issue("schedule length ", s.length, " exceeds the context memory of ",
            comp.name(), " (", comp.contextMemoryLength(), ")");
  }

  /// Flat PE-major (PE, context) tables, not maps: the Simulator and the
  /// context encoder run this layer on every schedule they take.
  void checkExclusive(const Composition& comp) {
    constexpr unsigned kNoReg = std::numeric_limits<unsigned>::max();
    const std::size_t len = s.length;
    std::vector<std::uint8_t> busy(comp.numPEs() * len, 0);
    std::vector<unsigned> exposed(comp.numPEs() * len, kNoReg);
    for (const ScheduledOp& op : s.ops) {
      if (!comp.pe(op.pe).supports(op.op))
        issue("PE ", op.pe, " does not support operation ", opName(op.op));
      for (unsigned c = op.start; c <= op.lastCycle(); ++c)
        if (std::exchange(busy[op.pe * len + c], 1) != 0)
          issue("PE ", op.pe, " double-booked at t", c);
      for (const OperandSource& src : op.src) {
        if (src.kind != OperandSource::Kind::Route) continue;
        if (!comp.interconnect().hasLink(src.srcPE, op.pe))
          issue("op at t", op.start, " on PE ", op.pe,
                " routes from non-source PE ", src.srcPE);
        unsigned& reg = exposed[src.srcPE * len + op.start];
        if (reg != kNoReg && reg != src.vreg)
          issue("PE ", src.srcPE, " output port exposes two registers at t",
                op.start);
        reg = src.vreg;
      }
    }
    std::vector<std::uint8_t> cbox(len, 0);
    for (const CBoxOp& op : s.cboxOps)
      if (std::exchange(cbox[op.time], 1) != 0)
        issue("two C-Box ops at t", op.time);
    std::vector<std::uint8_t> branch(len, 0);
    for (const BranchOp& b : s.branches)
      if (std::exchange(branch[b.time], 1) != 0)
        issue("two branches at t", b.time);
  }

  // -- layer 3: semantics against the CDFG ----------------------------------

  /// Per node, the op that computes it (a fused pWRITE: its producer's).
  std::vector<const ScheduledOp*> nodeOps;
  /// Per loop, its context interval.
  std::vector<const LoopInterval*> intervals;

  void checkSemantics(const Cdfg& g) {
    for (const ScheduledOp& op : s.ops)
      if (op.node != kNoNode && op.node >= g.numNodes())
        issue("op at t", op.start, " names node ", op.node,
              " outside the CDFG");
    for (const LoopInterval& li : s.loops)
      if (li.loop == kRootLoop || li.loop >= g.numLoops())
        issue("interval of loop ", li.loop, ", which the CDFG lacks");
    if (!issues.empty()) return;
    checkNodeCoverage(g);
    checkVarHomes(g);
    checkDependencies(g);
    checkPredication(g);
    checkStatusConsumption();
    checkLoops(g);
  }

  void checkNodeCoverage(const Cdfg& g) {
    nodeOps.assign(g.numNodes(), nullptr);
    for (const ScheduledOp& op : s.ops) {
      if (op.node == kNoNode) {
        if ((op.op != Op::MOVE && op.op != Op::CONST) || op.emitsStatus)
          issue("inserted op at t", op.start, " is ", opName(op.op),
                op.emitsStatus ? " driving the status wire" : "",
                ", expected MOVE/CONST");
        continue;
      }
      if (nodeOps[op.node] != nullptr)
        issue("node ", op.node, " scheduled twice");
      nodeOps[op.node] = &op;
      // The op runs its node: a pWRITE as a MOVE, or a CONST of an
      // immediate; a comparison, and nothing else, drives the status wire.
      const Node& n = g.node(op.node);
      const Op want = !n.isPWrite() ? n.op
                      : n.operands[0].kind() == Operand::Kind::Immediate
                          ? Op::CONST
                          : Op::MOVE;
      if (op.op != want)
        issue("node ", op.node, " runs ", opName(op.op), ", expected ",
              opName(want));
      if (op.emitsStatus != n.isStatusProducer())
        issue("node ", op.node, " at t", op.start,
              op.emitsStatus ? " drives" : " does not drive",
              " the status wire");
    }
    for (NodeId id = 0; id < g.numNodes(); ++id) {
      if (nodeOps[id] != nullptr) continue;
      // Fused pWRITEs share their producer's ScheduledOp; accept a pWRITE
      // without its own op when its producer's op writes the home register.
      const Node& n = g.node(id);
      const ScheduledOp* producer =
          n.isPWrite() && n.operands[0].kind() == Operand::Kind::Node
              ? nodeOps[n.operands[0].nodeId()]
              : nullptr;
      if (producer != nullptr && producer->writesDest)
        nodeOps[id] = producer;
      else
        issue("node ", id, " not scheduled");
    }
  }

  /// One home per variable; every live binding is its variable's home, once
  /// per direction the CDFG transfers the variable; every pWRITE's op (a
  /// fused one's: its producer's) writes the home. Decoded context images
  /// carry no homes and skip this check.
  void checkVarHomes(const Cdfg& g) {
    if (s.varHomes.empty()) return;
    std::vector<const LiveBinding*> homes(g.numVariables(), nullptr);
    for (const LiveBinding& h : s.varHomes) {
      if (h.var >= homes.size())
        issue("home of variable ", h.var, ", which the CDFG lacks");
      else if (std::exchange(homes[h.var], &h) != nullptr)
        issue("variable ", h.var, " has two homes");
    }
    const auto isHome = [&](VarId v, PEId pe, unsigned vreg) {
      const LiveBinding* h = v < homes.size() ? homes[v] : nullptr;
      return h != nullptr && h->pe == pe && h->vreg == vreg;
    };
    for (const bool in : {true, false}) {
      const char* what = in ? "live-in" : "live-out";
      std::vector<unsigned> bindings(homes.size(), 0);
      for (const LiveBinding& lb : in ? s.liveIns : s.liveOuts) {
        if (isHome(lb.var, lb.pe, lb.vreg))
          ++bindings[lb.var];
        else
          issue(what, " binding of variable ", lb.var, " is not its home");
      }
      for (VarId v = 0; v < homes.size(); ++v) {
        const Variable& var = g.variable(v);
        const unsigned want = (in ? var.liveIn : var.liveOut) ? 1 : 0;
        if (homes[v] != nullptr && bindings[v] != want)
          issue("variable ", v, " has ", bindings[v], " ", what,
                " bindings, expected ", want);
      }
    }
    for (NodeId id = 0; id < g.numNodes(); ++id) {
      const Node& n = g.node(id);
      const ScheduledOp* op = nodeOps[id];
      if (!n.isPWrite() || op == nullptr) continue;
      if (!op->writesDest || !isHome(n.var, op->pe, op->destVreg))
        issue("pWRITE node ", id, " does not write the home of variable ",
              n.var);
    }
  }

  void checkDependencies(const Cdfg& g) {
    for (const Edge& e : g.edges()) {
      const ScheduledOp* from = nodeOps[e.from];
      const ScheduledOp* to = nodeOps[e.to];
      if (from == nullptr || to == nullptr) continue;
      const unsigned fromFinish = from->start + from->duration;
      switch (e.kind) {
        case DepKind::Flow:
        case DepKind::Output:
          // Fused producer/writer pairs share one op; identity is fine.
          if (from != to && to->start < fromFinish)
            issue("edge ", e.from, "->", e.to, " (",
                  e.kind == DepKind::Flow ? "flow" : "output",
                  ") violated: ", to->start, " < ", fromFinish);
          break;
        case DepKind::Anti:
          if (to->start < from->start)
            issue("anti edge ", e.from, "->", e.to, " violated: ", to->start,
                  " < ", from->start);
          break;
        case DepKind::Control:
          if (from != to && to->start < fromFinish)
            issue("control edge ", e.from, "->", e.to,
                  " violated: condition producer finishes at ", fromFinish,
                  ", consumer starts at ", to->start);
          break;
      }
    }
  }

  void checkPredication(const Cdfg& g) {
    // Single outPE wire: at most one distinct (slot, polarity) per cycle.
    std::vector<const PredRef*> predAt(s.length, nullptr);
    for (const ScheduledOp& op : s.ops) {
      if (op.pred) {
        const PredRef*& seen = predAt[op.start];
        if (seen == nullptr)
          seen = &*op.pred;
        else if (!(*seen == *op.pred))
          issue("two distinct predication signals read at t", op.start);
      }
      // A pWRITE or memory node with a non-TRUE condition commits under
      // predication. A fused producer op carries the writer's predication,
      // so only ops that directly represent the node are checked.
      if (op.node == kNoNode || op.pred) continue;
      const Node& n = g.node(op.node);
      if ((n.isPWrite() || n.isMemory()) && n.cond != kCondTrue)
        issue("node ", op.node, " (cond ", n.cond,
              ") scheduled without predication at t", op.start);
    }
  }

  void checkStatusConsumption() {
    // The C-Box consumes the status wire in a comparison's last cycle.
    std::vector<std::uint8_t> consumed(s.length, 0);
    for (const CBoxOp& c : s.cboxOps)
      for (const CBoxOp::Input& in : c.inputs)
        if (in.kind == CBoxOp::Input::Kind::Status) consumed[c.time] = 1;
    for (const ScheduledOp& op : s.ops)
      if (op.emitsStatus && consumed[op.lastCycle()] == 0)
        issue("status of comparison at t", op.start, " never consumed");
  }

  void checkLoops(const Cdfg& g) {
    for (const BranchOp& b : s.branches)
      if (b.target > b.time)
        issue("forward branch at t", b.time, " (target ", b.target, ")");

    intervals.assign(g.numLoops(), nullptr);
    for (const LoopInterval& li : s.loops) {
      if (intervals[li.loop] != nullptr)
        issue("loop ", li.loop, " closed twice");
      intervals[li.loop] = &li;
      const bool closed = std::any_of(
          s.branches.begin(), s.branches.end(), [&](const BranchOp& b) {
            return b.loop == li.loop && b.time == li.end &&
                   b.target == li.start && b.conditional;
          });
      if (!closed)
        issue("loop ", li.loop, " missing conditional back-branch at t",
              li.end);
    }

    // Nesting: a child interval lies strictly inside its parent's, and
    // sibling intervals are disjoint.
    for (LoopId l = 1; l < g.numLoops(); ++l) {
      const LoopInterval* li = intervals[l];
      if (li == nullptr) {
        issue("loop ", l, " never closed");
        continue;
      }
      const LoopId parent = g.loop(l).parent;
      const LoopInterval* pi =
          parent == kRootLoop ? nullptr : intervals[parent];
      if (pi != nullptr && (li->start < pi->start || li->end >= pi->end))
        issue("loop ", l, " interval [", li->start, ",", li->end,
              "] not nested in parent [", pi->start, ",", pi->end, "]");
      for (LoopId other = l + 1; other < g.numLoops(); ++other) {
        const LoopInterval* oi = intervals[other];
        if (oi == nullptr || g.loopContains(l, other) ||
            g.loopContains(other, l))
          continue;
        if (li->end >= oi->start && oi->end >= li->start)
          issue("sibling loops ", l, " and ", other, " overlap");
      }
    }

    // Ownership: an op of loop l lies inside l's interval and starts
    // outside every interval of a loop that does not contain l.
    for (const ScheduledOp& op : s.ops) {
      if (op.node == kNoNode) continue;  // copies/constants may backfill
      const LoopId l = g.node(op.node).loop;
      const LoopInterval* own = l == kRootLoop ? nullptr : intervals[l];
      if (own != nullptr &&
          (op.start < own->start || op.lastCycle() > own->end))
        issue("node ", op.node, " of loop ", l, " at [", op.start, ",",
              op.lastCycle(), "] escapes interval [", own->start, ",",
              own->end, "]");
      for (LoopId other = 1; other < g.numLoops(); ++other) {
        const LoopInterval* oi = intervals[other];
        if (oi == nullptr || g.loopContains(other, l)) continue;
        if (op.start >= oi->start && op.start <= oi->end)
          issue("node ", op.node, " of loop ", l, " scheduled at t", op.start,
                " inside foreign loop ", other, " interval");
      }
    }
  }
};

}  // namespace

std::vector<std::string> verifySchedule(const Schedule& sched,
                                        const Composition* comp,
                                        const Cdfg* graph) {
  CGRA_ASSERT_MSG(graph == nullptr || comp != nullptr,
                  "the semantic layer runs after the composition's");
  Verifier v{sched, {}, {}, {}};
  v.checkBounds();
  if (comp != nullptr && v.issues.empty()) v.checkFit(*comp);
  if (comp != nullptr && v.issues.empty()) v.checkExclusive(*comp);
  if (graph != nullptr && v.issues.empty()) v.checkSemantics(*graph);
  return std::move(v.issues);
}

void requireValidSchedule(const Schedule& sched, const char* who,
                          const Composition* comp, const Cdfg* graph) {
  const std::vector<std::string> issues = verifySchedule(sched, comp, graph);
  if (issues.empty()) return;
  std::string msg = who;
  for (std::size_t i = 0; i < issues.size(); ++i)
    msg += (i == 0 ? ": " : "; ") + issues[i];
  throw Error(msg);
}

}  // namespace cgra
