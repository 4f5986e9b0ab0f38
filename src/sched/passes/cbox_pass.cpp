#include "sched/passes/cbox_pass.hpp"

#include <algorithm>
#include <utility>

namespace cgra::passes {

std::optional<PredRef> ensureCondition(const ArchModel& model, RunState& st,
                                       CondId c, unsigned deadline) {
  // Recursion for parent conditions nests CBox scopes; lap accounting
  // charges every nanosecond to CBox exactly once either way.
  PassScope scope(st.passTimer, PassId::CBox);
  CGRA_ASSERT(c != kCondTrue);
  if (const std::optional<CondSlot>& done = st.condSlots[c])
    return done->ready <= deadline ? std::optional(done->ref) : std::nullopt;

  const Condition& cond = st.g.condition(c);
  const std::optional<CondSlot>& rawSlot = st.rawSlots[cond.statusNode];
  if (!rawSlot) return std::nullopt;  // CMP not scheduled yet
  const CondSlot& raw = *rawSlot;

  if (cond.parent == kCondTrue) {
    // TRUE ∧ literal: read the raw status slot with the literal polarity.
    CondSlot slot{PredRef{raw.ref.slot, cond.polarity}, raw.ready};
    if (slot.ready > deadline) return std::nullopt;
    st.insertCondSlot(c, slot);
    return slot.ref;
  }

  // parent ∧ literal: combine the stored parent with the stored raw status.
  if (deadline == 0) return std::nullopt;
  const auto parentRef = ensureCondition(model, st, cond.parent, deadline - 1);
  if (!parentRef) return std::nullopt;
  const unsigned parentReady = st.condSlots[cond.parent]->ready;

  const unsigned lo = std::max(parentReady, raw.ready);
  for (unsigned u = lo; u + 1 <= deadline; ++u) {
    if (st.cboxOpAt.test(u)) continue;
    CBoxOp op;
    op.time = u;
    op.inputs = {
        CBoxOp::Input{CBoxOp::Input::Kind::Stored, parentRef->slot,
                      parentRef->polarity},
        CBoxOp::Input{CBoxOp::Input::Kind::Stored, raw.ref.slot,
                      cond.polarity}};
    op.logic = CBoxOp::Logic::And;
    op.cond = c;
    const unsigned writeSlot = st.addCBoxOp(std::move(op));
    CGRA_TRACE(st.trace, CBoxSlotAllocated, .cycle = u, .a = writeSlot,
               .b = c, .detail = "and");
    CondSlot slot{PredRef{writeSlot, true}, u + 1};
    st.insertCondSlot(c, slot);
    return slot.ref;
  }
  return std::nullopt;
}

void allocateStatusSlot(const ArchModel& /*model*/, RunState& st, NodeId id,
                        unsigned statusCycle) {
  PassScope scope(st.passTimer, PassId::CBox);
  // Store the raw status into a fresh condition slot on the status cycle.
  CBoxOp cb;
  cb.time = statusCycle;
  cb.inputs = {CBoxOp::Input{CBoxOp::Input::Kind::Status, 0, true}};
  cb.logic = CBoxOp::Logic::Pass;
  cb.cond = kCondTrue;  // raw literal, interpreted per condition
  const unsigned writeSlot = st.addCBoxOp(std::move(cb));
  CGRA_TRACE(st.trace, CBoxSlotAllocated, .cycle = statusCycle,
             .node = static_cast<std::int32_t>(id), .a = writeSlot,
             .detail = "status");
  st.rawSlots[id] = CondSlot{PredRef{writeSlot, true}, statusCycle + 1};
}

}  // namespace cgra::passes
