#include "sched/passes/cost_model.hpp"

#include <algorithm>
#include <numeric>

namespace cgra::passes {

void AttractionCostModel::initOrders(const ArchModel& model,
                                     RunState& st) const {
  PassScope scope(st.passTimer, PassId::CostModel);
  // Every attraction row starts at zero, so all nodes share one order:
  // static connectivity first (index order without attraction).
  std::vector<PEId> order(st.comp.numPEs());
  std::iota(order.begin(), order.end(), PEId{0});
  if (st.opts.useAttraction)
    std::stable_sort(order.begin(), order.end(), [&](PEId a, PEId b) {
      return model.connectivity[a] > model.connectivity[b];
    });
  st.peOrder.resize(st.g.numNodes() * order.size());
  for (NodeId id = 0; id < st.g.numNodes(); ++id)
    std::copy(order.begin(), order.end(), st.peOrderRow(id).begin());
}

void AttractionCostModel::onNodePlaced(const ArchModel& model, RunState& st,
                                       NodeId id, PEId pe) const {
  PassScope scope(st.passTimer, PassId::CostModel);
  // Successors are drawn toward PEs that can access this result's register
  // file. The sink lists come from the shared model tables (the seed
  // re-scanned the interconnect here).
  for (const Edge& e : st.g.outEdges(id)) {
    if (st.nodeScheduled[e.to]) continue;
    const std::span<double> att = st.attractionRow(e.to);
    att[pe] += 1.0;
    for (PEId q : model.sinks[pe]) att[q] += 1.0;
    if (!st.opts.useAttraction) continue;
    // Attraction only grows, so the row stays nearly sorted and PEs only
    // move forward: an insertion sort under the full (attraction,
    // connectivity, index) order re-ranks it in a few comparisons.
    const auto before = [&](PEId a, PEId b) {
      if (att[a] != att[b]) return att[a] > att[b];
      if (model.connectivity[a] != model.connectivity[b])
        return model.connectivity[a] > model.connectivity[b];
      return a < b;
    };
    const std::span<PEId> row = st.peOrderRow(e.to);
    for (std::size_t i = 1; i < row.size(); ++i) {
      const PEId p = row[i];
      std::size_t j = i;
      for (; j > 0 && before(p, row[j - 1]); --j) row[j] = row[j - 1];
      row[j] = p;
    }
  }
}

const CostModel& attractionCostModel() {
  static const AttractionCostModel instance;
  return instance;
}

}  // namespace cgra::passes
