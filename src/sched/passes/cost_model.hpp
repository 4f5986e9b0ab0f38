// Placement cost model: how the placement pass orders PEs for a node and
// how a committed placement feeds back into future ordering.
//
// The paper's attraction criterion (§V-G) is one implementation of this
// interface; ablation setups (SchedulerOptions::useAttraction = false) run
// the same implementation with the ordering reduced to index order, so the
// feedback bookkeeping — and therefore the schedule — matches the seed
// scheduler bit for bit in both modes.
//
// The model keeps every node's PE preference order in `RunState::peOrder`,
// so the placement pass reads a row per candidate instead of sorting PEs
// on every probe: a row changes only when a placement changes the node's
// attraction row, and only then is it re-ranked.
#pragma once

#include "sched/passes/run_state.hpp"

namespace cgra::passes {

class CostModel {
public:
  virtual ~CostModel() = default;

  /// Fills `st.peOrder` for a fresh run (analysis pass, after the
  /// attraction rows are zeroed).
  virtual void initOrders(const ArchModel& model, RunState& st) const = 0;

  /// Feedback after `id` committed to `pe`: update the affinities of its
  /// not-yet-scheduled successors and re-rank their `st.peOrder` rows.
  virtual void onNodePlaced(const ArchModel& model, RunState& st, NodeId id,
                            PEId pe) const = 0;
};

/// The attraction criterion (§V-G): successors are drawn toward PEs that
/// can access the placed result's register file; ties break on static
/// connectivity, then on PE index (the order a stable sort of index order
/// produces).
class AttractionCostModel final : public CostModel {
public:
  void initOrders(const ArchModel& model, RunState& st) const override;
  void onNodePlaced(const ArchModel& model, RunState& st, NodeId id,
                    PEId pe) const override;
};

/// Shared immutable instance (the model keeps no state of its own).
const CostModel& attractionCostModel();

}  // namespace cgra::passes
