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
  const Interconnect& ic = model.interconnect();
  const std::size_t grown = 1 + model.sinks[pe].size();
  for (const Edge& e : st.g.outEdges(id)) {
    if (st.nodeScheduled[e.to]) continue;
    const std::span<double> att = st.attractionRow(e.to);
    att[pe] += 1.0;
    for (PEId q : model.sinks[pe]) att[q] += 1.0;
    if (!st.opts.useAttraction) continue;
    // Only `pe` and its sinks grew, all by the same amount, so the other
    // PEs keep their order and so do the grown ones among themselves.
    // Under the strict total (attraction, connectivity, index) order the
    // re-ranked row is the old one with each grown PE moved forward, front
    // to back: insertion steps for those PEs alone.
    const auto before = [&](PEId a, PEId b) {
      if (att[a] != att[b]) return att[a] > att[b];
      if (model.connectivity[a] != model.connectivity[b])
        return model.connectivity[a] > model.connectivity[b];
      return a < b;
    };
    const std::span<PEId> row = st.peOrderRow(e.to);
    std::size_t left = grown;
    for (std::size_t i = 0; left > 0; ++i) {
      const PEId p = row[i];
      if (p != pe && !ic.hasLink(pe, p)) continue;
      --left;
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
