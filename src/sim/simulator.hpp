// Cycle-accurate simulator of a generated CGRA executing one schedule.
//
// Substitutes the paper's FPGA execution (DESIGN.md records the
// substitution): the quantities the evaluation reports — executed context
// counts (Tables II/III), invocation overhead (Fig. 6's receive/run/send
// sequence) — are architectural, so a cycle-accurate software model measures
// the same numbers.
//
// Timing model (matching the scheduler's contract):
//  * operands are latched at an operation's first cycle from the RF state at
//    the start of that cycle (own RF or a source PE's output port);
//  * results commit at the end of the operation's last cycle;
//  * a comparison drives the status wire during its last cycle; the C-Box
//    operation of that cycle may consume it and writes its condition slot at
//    end of cycle;
//  * predication (the single outPE wire) and branch selection read condition
//    slots as of the start of the cycle;
//  * a predicated-off operation commits nothing (no RF write, no heap
//    access) — this is what makes speculative loop dry-passes and untaken
//    if-arms safe (§V-B, §V-D);
//  * the CCU increments the CCNT unless the context carries a branch whose
//    condition reads true.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "host/memory.hpp"
#include "sched/schedule.hpp"
#include "sim/counters.hpp"

namespace cgra {

/// Simulation options.
struct SimOptions {
  std::uint64_t maxCycles = 100'000'000;  ///< runaway-loop guard
  /// Populate SimResult.counters (hardware-counter model). Off by default:
  /// the interpreter hot loop then pays only a null-pointer test per guard.
  bool collectCounters = false;
};

/// Result of one CGRA invocation.
struct SimResult {
  std::map<VarId, std::int32_t> liveOuts;  ///< final live-out variable values
  std::uint64_t runCycles = 0;             ///< contexts executed
  std::uint64_t invocationCycles = 0;      ///< incl. live-in/out transfers
  std::uint64_t dmaLoads = 0;
  std::uint64_t dmaStores = 0;
  double energy = 0.0;  ///< summed per-op energy (relative units)
  /// Hardware counters of this invocation; engaged only when
  /// SimOptions.collectCounters is set. Reset per invocation: a runWindow
  /// call never accumulates into a previous call's counters.
  std::optional<SimCounters> counters;
};

/// Executes a schedule on a composition.
class Simulator {
public:
  /// Per the invocation protocol (Fig. 6): each local-variable transfer
  /// (receive and send) takes 2 cycles, plus fixed start/finish handshaking.
  static constexpr unsigned kCyclesPerTransfer = 2;
  static constexpr unsigned kInvocationOverhead = 4;

  /// Throws cgra::Error when the schedule fails layers 1-2 of
  /// verifySchedule (sched/validate.hpp): out of its bounds, not made for
  /// `comp`, or not exclusive (a PE double-booked, two C-Box ops or two
  /// branches in one context).
  Simulator(const Composition& comp, const Schedule& sched);

  /// Runs one invocation. `liveIns` maps live-in variables to their values
  /// (missing entries default to 0). Throws cgra::Error on heap faults from
  /// *committed* accesses or when maxCycles is exceeded.
  SimResult run(const std::map<VarId, std::int32_t>& liveIns, HostMemory& heap,
                const SimOptions& opts = {}) const;

  /// Runs one invocation of a kernel *window* inside a packed context
  /// memory (§IV-A.3: the host transfers the initial CCNT): execution
  /// starts at `startCcnt`, ends when the CCNT reaches `endCcnt`, and the
  /// live-in/out bindings of the placement override the schedule's own.
  SimResult runWindow(const std::map<VarId, std::int32_t>& liveIns,
                      HostMemory& heap,
                      const std::vector<LiveBinding>& liveInBindings,
                      const std::vector<LiveBinding>& liveOutBindings,
                      unsigned startCcnt, unsigned endCcnt,
                      const SimOptions& opts = {}) const;

private:
  const Composition* comp_;
  const Schedule* sched_;

  /// One op issued at a context, with its energy per execution.
  struct Issue {
    const ScheduledOp* op;
    double energy;
  };

  // Per-context dispatch tables built once.
  std::vector<std::vector<Issue>> startAt_;
  std::vector<const CBoxOp*> cboxAt_;
  std::vector<const BranchOp*> branchAt_;
};

}  // namespace cgra
