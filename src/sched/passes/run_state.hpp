// Mutable state of one scheduling run, shared by every pass.
//
// The pipeline (see pipeline.hpp) drives a sequence of focused passes —
// priority/analysis, candidate selection, placement, routing/copy
// insertion, fusing, C-Box allocation, loop closure, finalize — each taking
// `(const ArchModel&, RunState&)`. The RunState owns everything a run
// mutates: the schedule under construction, per-node bookkeeping, per-cycle
// resource maps, value locations, condition slots and the open-loop stack.
// It lives on the stack of one `Scheduler::schedule` call and is never
// shared across threads; all cross-thread sharing goes through the
// immutable ArchModel.
//
// RunState is the only writer of the schedule under construction: passes
// append ops through addOp() and C-Box ops through addCBoxOp(), which also
// claim the resources those ops occupy. Every mutation a placement probe
// may have to take back records its inverse in one undo log, so a rejected
// probe rolls back in one newest-first pass.
//
// Every lookup a placement probe repeats is O(1): the analysis pass fills
// flat per-run tables (variable × loop writes, condition and raw status
// slots indexed by id, per-node PE orders) so no probe rescans the CDFG,
// searches a tree map or allocates a path; link tests and next hops are
// table reads in the ArchModel's interconnect.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "arch/arch_model.hpp"
#include "cdfg/cdfg.hpp"
#include "sched/metrics.hpp"
#include "sched/passes/pass_timer.hpp"
#include "sched/schedule.hpp"
#include "sched/scheduler.hpp"
#include "sched/trace.hpp"
#include "support/occupancy.hpp"
#include "support/small_vector.hpp"

namespace cgra::passes {

/// Internal control-flow signal for "this kernel cannot be mapped". Thrown
/// deep inside a pass, caught by the pipeline driver and converted into
/// ScheduleReport::failure — it never crosses the public API. Exceptions
/// that do escape (InternalError, malformed-graph Error) are programmer
/// errors by contract.
struct Unmappable {
  ScheduleFailure failure;
  /// Last placement-rejection reason of the stuck node, for the trace's
  /// Failure event.
  TraceReject lastReject = TraceReject::None;
};

/// One place a value can be read from: a (PE, virtual register) pair with
/// the first cycle a read succeeds and the last cycle it is still valid
/// (copies of variables become stale when the home is rewritten or when a
/// loop that rewrites the variable opens — see DESIGN.md §5/§6 rationale).
struct Location {
  PEId pe = 0;
  unsigned vreg = 0;
  unsigned ready = 0;
  unsigned validUntil = kNoLimit;

  static constexpr unsigned kNoLimit = static_cast<unsigned>(-1);
};

/// Per-value location list. Values rarely exist in more than a handful of
/// places (home/result register + a few routed copies), so the inline
/// capacity absorbs nearly all lists without heap traffic.
using LocationList = SmallVector<Location, 4>;

/// Materialized condition: C-Box slot + polarity and first readable cycle.
struct CondSlot {
  PredRef ref;
  unsigned ready = 0;
};

/// One entry of the open-loop stack: the loop and its first context.
struct OpenLoop {
  LoopId loop;
  unsigned start;
};

class CostModel;

/// One entry of the probe undo log: a mutation of run state made inside a
/// probe, with what rollbackTo() needs to reverse it.
struct Undo {
  enum class Kind : std::uint8_t {
    Home,      ///< varHomes[key] was assigned
    Vreg,      ///< nextVreg[key] was bumped
    Busy,      ///< peBusy[key] was marked over [cycle, cycle + len)
    Port,      ///< outPort[key] was first claimed at cycle
    Pred,      ///< the predication wire was first claimed at cycle
    Cond,      ///< condSlots[key] was set
    NodeLoc,   ///< nodeLocs[key] was pushed
    VarLoc,    ///< varCopies[key] was pushed
    ConstLoc,  ///< constLocs[int32(key)] was pushed
  };
  Kind kind{};
  std::uint32_t key = 0;
  unsigned cycle = 0;
  unsigned len = 0;
};

/// Everything rollbackTo() needs to return to the moment of savepoint():
/// the lengths of the append-only schedule tables, the counters restored by
/// value, and the undo log position (see the transactional probe contract in
/// DESIGN.md: a failed probe may touch only the per-node rejection
/// bookkeeping and the trace).
struct ProbeSavepoint {
  std::size_t ops = 0;
  std::size_t cboxOps = 0;
  std::size_t liveIns = 0;
  std::uint64_t copiesInserted = 0;
  std::uint64_t constsInserted = 0;
  unsigned nextCondSlot = 0;
  std::size_t undo = 0;
};

struct RunState {
  RunState(const Composition& comp, const SchedulerOptions& opts,
           const Cdfg& g, Trace* trace)
      : comp(comp), opts(opts), g(g), trace(trace) {}

  RunState(const RunState&) = delete;
  RunState& operator=(const RunState&) = delete;

  // -- run inputs -------------------------------------------------------------

  const Composition& comp;
  const SchedulerOptions& opts;
  const Cdfg& g;
  /// Per-run decision trace; null when the request disabled tracing (every
  /// instrumentation point then costs one predicted-not-taken branch).
  Trace* trace = nullptr;
  /// Placement cost model (the attraction criterion, §V-G); set by the
  /// pipeline before planning starts.
  const CostModel* costModel = nullptr;

  // -- run outputs ------------------------------------------------------------

  Schedule sched;
  SchedulerMetrics metrics;
  /// Exclusive per-pass wall-time attribution (see pass_timer.hpp).
  /// `mutable` because it is metrics bookkeeping like `metrics` and the
  /// trace — const pass entry points (fusing feasibility checks) still
  /// charge their self-time, and the probe contract exempts it.
  mutable PassTimer passTimer;

  // -- planning cursor --------------------------------------------------------

  unsigned t = 0;
  unsigned limit = 0;
  bool stepHasOp = false;
  std::size_t scheduledCount = 0;
  /// Why the in-flight placement attempt failed (set via fail()).
  TraceReject reject = TraceReject::None;

  // -- per-node bookkeeping ---------------------------------------------------

  /// Per node, its longest-path weight (§V-F), as Cdfg::validate returns
  /// it.
  std::vector<double> priorities;
  /// Per node and PE, the §V-G attraction: flat numNodes × numPEs rows.
  std::vector<double> attraction;
  /// Per node, its PEs most-preferred first: flat numNodes × numPEs rows
  /// the cost model fills in the analysis pass and re-ranks when a
  /// placement changes the node's attraction row (see cost_model.hpp).
  std::vector<PEId> peOrder;
  /// Per node, the pWRITE its value fuses into, or kNoNode (fusing_pass.hpp;
  /// filled once in the analysis pass — it depends only on the graph and
  /// SchedulerOptions::fuseWrites).
  std::vector<NodeId> fusableWriter;
  std::vector<unsigned> nodeStart, nodeFinish;
  std::vector<bool> nodeScheduled;
  /// Per node: most informative rejection of its newest attempt step.
  std::vector<TraceReject> lastReject;
  std::vector<unsigned> lastRejectStep;
  std::vector<unsigned> remainingPreds;
  /// Dependence frontier, maintained in probe order (priority descending,
  /// id ascending under longestPathPriority; plain ascending id otherwise).
  /// Incrementally kept sorted by insertCandidate()/eraseCandidate() — the
  /// seed re-sorted a std::set snapshot on every planStep sweep. Priorities
  /// are fixed after analysis, so a node's rank never changes while queued.
  std::vector<NodeId> candidates;

  // -- per-cycle resource maps ------------------------------------------------

  std::vector<CycleOccupancy> peBusy;
  std::vector<CycleSlots<unsigned>> outPort;
  CycleOccupancy cboxOpAt;
  CycleSlots<PredRef> predUse;
  CycleOccupancy branchAt;

  std::vector<unsigned> nextVreg;
  unsigned nextCondSlot = 0;

  // -- value locations --------------------------------------------------------

  std::vector<std::optional<Location>> varHomes;
  std::vector<LocationList> varCopies;
  std::vector<LocationList> nodeLocs;
  std::unordered_map<std::int32_t, LocationList> constLocs;
  LocationList scratchLocs;

  // -- reusable hot-loop scratch buffers --------------------------------------

  /// candidateSnapshot()'s buffer: the frontier copy one planStep sweep
  /// iterates while placements mutate `candidates`.
  std::vector<NodeId> scratchCandidates;

  // -- conditions and loops ---------------------------------------------------

  /// Per condition (indexed by CondId), its materialized slot once
  /// ensureCondition built it.
  std::vector<std::optional<CondSlot>> condSlots;
  /// Per comparison node (indexed by NodeId), the slot its raw status was
  /// stored in once the node was placed.
  std::vector<std::optional<CondSlot>> rawSlots;

  std::vector<OpenLoop> loopStack;
  std::vector<std::vector<NodeId>> loopSubtree;
  /// Flat numVariables × numLoops table, variable-major: 1 when some node
  /// of the loop (or of a loop nested in it) pWRITEs the variable. Filled
  /// once per run by the analysis pass; read through loopWrites().
  std::vector<std::uint8_t> varWritten;

  // -- transactional placement probes -----------------------------------------
  //
  // A (node, PE) placement probe may fail after mutating shared run state
  // (variable homes, live-in bindings, routing copies, C-Box slots). Every
  // such mutation between beginProbe() and commitProbe()/rollbackProbe()
  // goes through a mutator below, which records its inverse in `undoLog`;
  // rollback restores the exact pre-probe state, so a rejected probe
  // observably touches only `lastReject`, `metrics` counters and the trace.
  // savepoint()/rollbackTo() expose the same mechanism for sub-transactions
  // inside a probe (the fusion path's speculative condition
  // materialization).

  bool probeActive = false;
  ProbeSavepoint probeBase;
  /// Inverses of the mutations made since beginProbe(), oldest first;
  /// empty outside a probe.
  std::vector<Undo> undoLog;

  /// Outside a probe every mutation is final, so nothing is recorded.
  void record(const Undo& u) {
    if (probeActive) undoLog.push_back(u);
  }

  ProbeSavepoint savepoint() const {
    return ProbeSavepoint{sched.ops.size(),       sched.cboxOps.size(),
                          sched.liveIns.size(),   metrics.copiesInserted,
                          metrics.constsInserted, nextCondSlot,
                          undoLog.size()};
  }

  /// Undoes every mutation made after `sp`, newest first.
  void rollbackTo(const ProbeSavepoint& sp) {
    while (sched.cboxOps.size() > sp.cboxOps) {
      cboxOpAt.clear(sched.cboxOps.back().time);
      sched.cboxOps.pop_back();
    }
    sched.ops.resize(sp.ops);
    sched.liveIns.resize(sp.liveIns);
    metrics.copiesInserted = sp.copiesInserted;
    metrics.constsInserted = sp.constsInserted;
    nextCondSlot = sp.nextCondSlot;
    for (; undoLog.size() > sp.undo; undoLog.pop_back()) {
      const Undo& u = undoLog.back();
      switch (u.kind) {
        case Undo::Kind::Home: varHomes[u.key].reset(); break;
        case Undo::Kind::Vreg: --nextVreg[u.key]; break;
        case Undo::Kind::Busy: peBusy[u.key].clear(u.cycle, u.len); break;
        case Undo::Kind::Port: outPort[u.key].release(u.cycle); break;
        case Undo::Kind::Pred: predUse.release(u.cycle); break;
        case Undo::Kind::Cond: condSlots[u.key].reset(); break;
        case Undo::Kind::NodeLoc: nodeLocs[u.key].pop_back(); break;
        case Undo::Kind::VarLoc: varCopies[u.key].pop_back(); break;
        case Undo::Kind::ConstLoc:
          constLocs[static_cast<std::int32_t>(u.key)].pop_back();
          break;
      }
    }
  }

  void beginProbe() {
    CGRA_ASSERT(!probeActive && undoLog.empty());
    probeActive = true;
    probeBase = savepoint();
  }

  void commitProbe() {
    CGRA_ASSERT(probeActive);
    probeActive = false;
    undoLog.clear();
  }

  void rollbackProbe() {
    CGRA_ASSERT(probeActive);
    rollbackTo(probeBase);
    probeActive = false;
  }

  // -- the only writers of the schedule under construction --------------------

  /// Appends a scheduled op: claims the predication wire for its
  /// predicate, marks its PE busy over its duration.
  void addOp(ScheduledOp op) {
    if (op.pred) claimPredSignal(op.start, *op.pred);
    markBusy(op.pe, op.start, op.duration);
    sched.ops.push_back(std::move(op));
  }

  /// Appends a C-Box op writing the next condition slot, marks the C-Box
  /// write port on its cycle, and returns the slot.
  unsigned addCBoxOp(CBoxOp op) {
    op.writeSlot = nextCondSlot++;
    cboxOpAt.mark(op.time);
    sched.cboxOps.push_back(std::move(op));
    return sched.cboxOps.back().writeSlot;
  }

  // -- resource helpers -------------------------------------------------------

  bool busy(PEId pe, unsigned from, unsigned dur) const {
    return peBusy[pe].anyBusy(from, dur);
  }

  void markBusy(PEId pe, unsigned from, unsigned dur) {
    // Every call site verifies the range free first, so the marked range is
    // disjoint from all earlier marks and clear() restores it exactly.
    record(Undo{Undo::Kind::Busy, pe, from, dur});
    peBusy[pe].mark(from, dur);
  }

  /// Checks/claims a source PE's output port at a cycle for a register.
  bool outPortFree(PEId pe, unsigned cycle, unsigned vreg) const {
    return outPort[pe].freeFor(cycle, vreg);
  }

  void claimOutPort(PEId pe, unsigned cycle, unsigned vreg) {
    // Record only first claims: re-claiming the same vreg on a cycle an
    // earlier committed op already exposed must survive a rollback.
    if (outPort[pe].get(cycle) == nullptr)
      record(Undo{Undo::Kind::Port, pe, cycle});
    outPort[pe].claim(cycle, vreg);
  }

  unsigned freshVreg(PEId pe) {
    record(Undo{Undo::Kind::Vreg, pe});
    return nextVreg[pe]++;
  }

  /// Per-cycle single predication signal (the C-Box outPE output is one
  /// wire broadcast to all PEs).
  bool predSignalAvailable(unsigned cycle, const PredRef& ref) const {
    return predUse.freeFor(cycle, ref);
  }

  void claimPredSignal(unsigned cycle, const PredRef& ref) {
    if (predUse.get(cycle) == nullptr)
      record(Undo{Undo::Kind::Pred, 0, cycle});
    predUse.claim(cycle, ref);
  }

  /// Caches a materialized condition; the insert is undone on rollback.
  void insertCondSlot(CondId c, const CondSlot& slot) {
    CGRA_ASSERT(!condSlots[c]);
    condSlots[c] = slot;
    record(Undo{Undo::Kind::Cond, c});
  }

  /// Assigns a variable's home register (§V-D heuristic: the PE that can
  /// provide the value to the first PE requiring it — we pin the home on
  /// that very PE). For live-in variables the host transfer is recorded.
  void assignHome(VarId var, PEId pe) {
    CGRA_ASSERT(!varHomes[var]);
    const unsigned vreg = freshVreg(pe);
    record(Undo{Undo::Kind::Home, var});
    varHomes[var] = Location{pe, vreg, 0, Location::kNoLimit};
    if (g.variable(var).liveIn)
      sched.liveIns.push_back(LiveBinding{var, pe, vreg});
  }

  /// Ensures the variable has a home; used on first read.
  void homeFor(VarId var, PEId consumerPe) {
    if (!varHomes[var]) assignHome(var, consumerPe);
  }

  LoopId currentLoop() const { return loopStack.back().loop; }

  /// True when some node inside loop `l` (or nested deeper) pWRITEs `var`.
  bool loopWrites(LoopId l, VarId var) const {
    return varWritten[std::size_t{var} * g.numLoops() + l] != 0;
  }

  // -- per-node rows of the numNodes × numPEs tables --------------------------

  std::span<double> attractionRow(NodeId id) {
    return {attraction.data() + std::size_t{id} * comp.numPEs(),
            comp.numPEs()};
  }
  std::span<const double> attractionRow(NodeId id) const {
    return {attraction.data() + std::size_t{id} * comp.numPEs(),
            comp.numPEs()};
  }
  std::span<PEId> peOrderRow(NodeId id) {
    return {peOrder.data() + std::size_t{id} * comp.numPEs(), comp.numPEs()};
  }
  /// The PEs to probe for `id`, most-preferred first.
  std::span<const PEId> orderedPEs(NodeId id) const {
    return {peOrder.data() + std::size_t{id} * comp.numPEs(), comp.numPEs()};
  }

  // -- candidate frontier -----------------------------------------------------

  /// Strict total probe order over frontier nodes (ids are unique, so
  /// priority ties cannot make the order ambiguous). Matches the seed's
  /// stable_sort of the set snapshot bit for bit.
  bool candidateBefore(NodeId a, NodeId b) const {
    if (opts.longestPathPriority && priorities[a] != priorities[b])
      return priorities[a] > priorities[b];
    return a < b;
  }

  void insertCandidate(NodeId id) {
    const auto pos = std::lower_bound(
        candidates.begin(), candidates.end(), id,
        [this](NodeId x, NodeId y) { return candidateBefore(x, y); });
    candidates.insert(pos, id);
  }

  void eraseCandidate(NodeId id) {
    const auto pos = std::lower_bound(
        candidates.begin(), candidates.end(), id,
        [this](NodeId x, NodeId y) { return candidateBefore(x, y); });
    CGRA_ASSERT(pos != candidates.end() && *pos == id);
    candidates.erase(pos);
  }

  /// Rejects the current placement attempt with a reason the placement pass
  /// picks up for the trace and the per-node failure classification.
  bool fail(TraceReject why) {
    reject = why;
    return false;
  }

  // -- value locations --------------------------------------------------------

  /// Where the operand's value can be read from. A variable's list (home
  /// first, if assigned, then copies) is assembled in `scratchLocs`; node
  /// results and constants return their stored lists.
  const LocationList& locationsFor(const Operand& o) {
    static const LocationList kNone;
    switch (o.kind()) {
      case Operand::Kind::Node:
        return nodeLocs[o.nodeId()];
      case Operand::Kind::Variable:
        scratchLocs.clear();
        if (varHomes[o.varId()])
          scratchLocs.push_back(*varHomes[o.varId()]);
        for (const Location& l : varCopies[o.varId()])
          scratchLocs.push_back(l);
        return scratchLocs;
      case Operand::Kind::Immediate: {
        const auto it = constLocs.find(o.imm());
        return it != constLocs.end() ? it->second : kNone;
      }
    }
    CGRA_UNREACHABLE("unknown operand kind");
  }

  /// Lowest cycle at which a copy of this operand may be created so that it
  /// refreshes every iteration of any open loop that rewrites it.
  unsigned copyMinCycle(const Operand& o) const {
    if (o.kind() != Operand::Kind::Variable) return 0;
    unsigned minCycle = 0;
    for (const OpenLoop& ol : loopStack) {
      if (ol.loop == kRootLoop) continue;
      if (loopWrites(ol.loop, o.varId()))
        minCycle = std::max(minCycle, ol.start);
    }
    return minCycle;
  }

  void addLocation(const Operand& o, Location loc) {
    switch (o.kind()) {
      case Operand::Kind::Node:
        record(Undo{Undo::Kind::NodeLoc, o.nodeId()});
        nodeLocs[o.nodeId()].push_back(loc);
        break;
      case Operand::Kind::Variable:
        record(Undo{Undo::Kind::VarLoc, o.varId()});
        varCopies[o.varId()].push_back(loc);
        break;
      case Operand::Kind::Immediate:
        addConstLocation(o.imm(), loc);
        break;
    }
  }

  void addConstLocation(std::int32_t value, Location loc) {
    record(Undo{Undo::Kind::ConstLoc, static_cast<std::uint32_t>(value)});
    constLocs[value].push_back(loc);
  }

  /// Dependency-imposed earliest start of a node.
  unsigned earliestStart(NodeId id) const {
    unsigned earliest = 0;
    for (const Edge& e : g.inEdges(id)) {
      const unsigned c =
          e.kind == DepKind::Anti ? nodeStart[e.from] : nodeFinish[e.from];
      earliest = std::max(earliest, c);
    }
    return earliest;
  }
};

}  // namespace cgra::passes
