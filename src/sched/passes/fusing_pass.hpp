// Fusing (§V-E): a pWRITE is folded into its producer when the producer
// lands on the home PE, the condition is already available and no other
// node consumes the value. This pass answers the legality questions; the
// placement pass commits the fused op.
#pragma once

#include <optional>

#include "sched/passes/run_state.hpp"

namespace cgra::passes {

/// Fills `st.fusableWriter` (analysis pass): per node, the single pWRITE
/// consumer if the node's value feeds exactly one node and that node is a
/// pWRITE, and kNoNode for every node when SchedulerOptions::fuseWrites is
/// off.
void computeFusableWriters(RunState& st);

/// The pWRITE `id` may fuse into, if any (a read of `st.fusableWriter`).
inline std::optional<NodeId> fusablePWrite(const RunState& st, NodeId id) {
  const NodeId writer = st.fusableWriter[id];
  if (writer == kNoNode) return std::nullopt;
  return writer;
}

/// All non-producer dependencies of the pWRITE satisfied at cycle `t`?
bool pWriteDepsMet(const RunState& st, NodeId writer, NodeId producer,
                   unsigned t);

}  // namespace cgra::passes
