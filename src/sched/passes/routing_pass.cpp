#include "sched/passes/routing_pass.hpp"

#include <string>
#include <utility>

namespace cgra::passes {

namespace {

/// Latency of a scheduler-inserted op on `pe`: the shared model table in
/// the common case, falling back to the descriptor's throwing lookup for
/// the (unsupported) 0 sentinel so the error contract is unchanged.
unsigned insertedOpDuration(const ArchModel& model, const RunState& st, Op op,
                            PEId pe) {
  const unsigned dur = model.opDuration(pe, op);
  return dur != 0 ? dur : st.comp.pe(pe).impl(op).duration;
}

std::optional<OperandSource> findOwn(const LocationList& locs, PEId pe,
                                     unsigned t) {
  for (const Location& loc : locs)
    if (loc.pe == pe && loc.ready <= t && t <= loc.validUntil)
      return OperandSource{OperandSource::Kind::Own, 0, loc.vreg, 0};
  return std::nullopt;
}

std::optional<OperandSource> findRouted(const ArchModel& model, RunState& st,
                                        const LocationList& locs, PEId pe,
                                        unsigned t, ExposureMap& exposure) {
  for (const Location& loc : locs) {
    if (loc.ready > t || t > loc.validUntil) continue;
    if (!model.interconnect().hasLink(loc.pe, pe)) continue;
    if (!st.outPortFree(loc.pe, t, loc.vreg)) continue;
    if (const unsigned* vreg = exposure.find(loc.pe);
        vreg != nullptr && *vreg != loc.vreg)
      continue;
    exposure.set(loc.pe, loc.vreg);
    return OperandSource{OperandSource::Kind::Route, loc.pe, loc.vreg, 0};
  }
  return std::nullopt;
}

/// Schedules one MOVE hop from an existing location into `destPe` at a
/// free cycle in [minCycle, t-1]; returns the new location.
std::optional<Location> scheduleMove(const ArchModel& model, RunState& st,
                                     const Location& src, PEId destPe,
                                     unsigned minCycle, unsigned t,
                                     const std::string& label) {
  const unsigned dur = insertedOpDuration(model, st, Op::MOVE, destPe);
  const unsigned lo = std::max(minCycle, src.ready);
  if (lo + dur > t) return std::nullopt;
  for (unsigned u = lo; u + dur <= t; ++u) {
    if (u > src.validUntil) break;
    if (st.busy(destPe, u, dur)) continue;
    if (!st.outPortFree(src.pe, u, src.vreg)) continue;
    const unsigned vreg = st.freshVreg(destPe);
    ScheduledOp op;
    op.node = kNoNode;
    op.op = Op::MOVE;
    op.pe = destPe;
    op.start = u;
    op.duration = dur;
    op.src[0] = OperandSource{OperandSource::Kind::Route, src.pe, src.vreg, 0};
    op.writesDest = true;
    op.destVreg = vreg;
    op.label = label;
    st.addOp(std::move(op));
    st.claimOutPort(src.pe, u, src.vreg);
    ++st.metrics.copiesInserted;
    CGRA_TRACE(st.trace, CopyInserted, .cycle = u,
               .pe = static_cast<std::int32_t>(destPe), .a = src.pe,
               .b = vreg, .detail = "shortest-path hop");
    return Location{destPe, vreg, u + dur, Location::kNoLimit};
  }
  return std::nullopt;
}

/// Copies an operand along the shortest path toward `pe` so that the op at
/// cycle `t` can access it (§V-G: values are copied into earlier idle
/// cycles; the node is delayed otherwise).
std::optional<OperandSource> copyTowards(const ArchModel& model, RunState& st,
                                         const Operand& o,
                                         const LocationList& locs, PEId pe,
                                         unsigned t, ExposureMap& exposure) {
  // Pick the valid location closest to pe.
  const Interconnect& ic = model.interconnect();
  const Location* best = nullptr;
  for (const Location& loc : locs) {
    if (loc.ready > t || t > loc.validUntil) continue;
    if (ic.distance(loc.pe, pe) == kUnreachable) continue;
    if (!best || ic.distance(loc.pe, pe) < ic.distance(best->pe, pe))
      best = &loc;
  }
  if (!best) return std::nullopt;

  const unsigned minCycle = st.copyMinCycle(o);
  const std::string label = "copy";
  Location cur = *best;
  CGRA_ASSERT(cur.pe != pe);

  // Copy hop by hop along the next-hop table up to pe's neighbour; the
  // final access is routed. When routing at cycle t fails (port
  // conflict), copy into pe itself.
  for (PEId hop = ic.nextHop(cur.pe, pe); hop != pe;
       hop = ic.nextHop(cur.pe, pe)) {
    const auto next = scheduleMove(model, st, cur, hop, minCycle, t, label);
    if (!next) return std::nullopt;
    cur = *next;
    st.addLocation(o, cur);
  }
  // cur is now on a neighbour of pe (or was already).
  if (cur.pe != pe) {
    const unsigned* exposed = exposure.find(cur.pe);
    const bool portOk = st.outPortFree(cur.pe, t, cur.vreg) &&
                        (exposed == nullptr || *exposed == cur.vreg);
    if (portOk) {
      exposure.set(cur.pe, cur.vreg);
      return OperandSource{OperandSource::Kind::Route, cur.pe, cur.vreg, 0};
    }
    const auto fin = scheduleMove(model, st, cur, pe, minCycle, t, label);
    if (!fin) return std::nullopt;
    cur = *fin;
    st.addLocation(o, cur);
  }
  return OperandSource{OperandSource::Kind::Own, 0, cur.vreg, 0};
}

}  // namespace

std::optional<Location> materializeConst(const ArchModel& model, RunState& st,
                                         std::int32_t value, PEId pe,
                                         unsigned t) {
  PassScope scope(st.passTimer, PassId::Routing);
  const unsigned dur = insertedOpDuration(model, st, Op::CONST, pe);
  if (dur > t) return std::nullopt;
  const auto u = st.peBusy[pe].lastFreeWindowAtOrBefore(t - dur, dur);
  if (!u) return std::nullopt;
  const unsigned vreg = st.freshVreg(pe);
  ScheduledOp op;
  op.node = kNoNode;
  op.op = Op::CONST;
  op.pe = pe;
  op.start = *u;
  op.duration = dur;
  op.src[0] = OperandSource{OperandSource::Kind::Imm, 0, 0, value};
  op.writesDest = true;
  op.destVreg = vreg;
  op.label = "const " + std::to_string(value);
  st.addOp(std::move(op));
  Location loc{pe, vreg, *u + dur, Location::kNoLimit};
  st.addConstLocation(value, loc);
  ++st.metrics.constsInserted;
  CGRA_TRACE(st.trace, ConstInserted, .cycle = *u,
             .pe = static_cast<std::int32_t>(pe), .a = value);
  return loc;
}

std::optional<OperandSource> resolveOperand(const ArchModel& model,
                                            RunState& st, const Operand& o,
                                            PEId pe, unsigned t,
                                            ExposureMap& exposure) {
  PassScope scope(st.passTimer, PassId::Routing);
  // One location snapshot per operand: the seed rebuilt it inside each of
  // findOwn / findRouted / copyTowards. The list is only appended to after
  // the helpers finish reading it (copyTowards copies its pick by value
  // before inserting hops), so sharing the snapshot is behavior-identical.
  const LocationList& locs = st.locationsFor(o);

  if (o.kind() == Operand::Kind::Immediate) {
    // ALU operands come from registers: materialize the constant on the
    // consuming PE (constants are freely replicated, §V-D).
    if (const auto own = findOwn(locs, pe, t)) return own;
    if (const auto loc = materializeConst(model, st, o.imm(), pe, t))
      return OperandSource{OperandSource::Kind::Own, 0, loc->vreg, 0};
    return std::nullopt;
  }

  if (const auto own = findOwn(locs, pe, t)) return own;
  if (const auto routed = findRouted(model, st, locs, pe, t, exposure))
    return routed;
  return copyTowards(model, st, o, locs, pe, t, exposure);
}

}  // namespace cgra::passes
