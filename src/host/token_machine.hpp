// AMIDAR-like baseline executor with a token-dispatch cycle cost model.
//
// AMIDAR breaks each bytecode into tokens carrying operation, data-version
// tag and destination, distributed to functional units (§III). We do not
// model the token network structurally; we charge each bytecode the cycles
// its token sequence occupies the machine (dispatch + FU latency +
// writeback), with constants chosen so the ADPCM decoder lands near the
// paper's 926 k-cycle baseline. DESIGN.md records this substitution; the
// speedup comparison only needs the baseline's *scale*, which a
// few-cycles-per-bytecode sequential processor captures.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "host/bytecode.hpp"

namespace cgra {

/// Callback invoked for INVOKE_CGRA instructions: receives the accelerator
/// id, the live local-variable frame and the heap; performs the invocation
/// (live-in transfer, run, live-out write-back) and returns its cycle cost.
/// The host module stays independent of the CGRA implementation — the
/// simulator side registers this hook (paper §III: "the combination of the
/// scheduler and the CGRA can operate as a hardware accelerator for any
/// processor. Only the data exchange between host and CGRA have to be
/// adapted").
using AcceleratorHook = std::function<std::uint64_t(
    std::int32_t id, std::vector<std::int32_t>& locals, HostMemory& heap)>;

/// Per-bytecode-class cycle costs of the token machine.
struct TokenCostModel {
  unsigned constOp = 2;    ///< ICONST: decode + operand dispatch
  unsigned localOp = 3;    ///< ILOAD/ISTORE: local-variable FU round trip
  unsigned aluOp = 4;      ///< arithmetic/logic: dispatch + ALU + writeback
  unsigned mulOp = 6;      ///< IMUL: multi-cycle ALU
  unsigned branchOp = 5;   ///< compare + branch-selection round trip
  unsigned arrayOp = 9;    ///< heap FU access with handle resolution
  unsigned gotoOp = 3;
};

/// Result of one baseline run.
struct TokenRunResult {
  std::vector<std::int32_t> locals;  ///< final local variable values
  std::uint64_t cycles = 0;
  std::uint64_t bytecodes = 0;
  /// Per branch pc: how often the branch jumped to a target at or before
  /// itself (a taken loop back-edge). This is the profile AMIDAR's hardware
  /// profiler collects (§III); see host/profiler.hpp.
  std::vector<std::uint64_t> backEdges;
};

/// Sequential baseline machine executing BytecodeFunction against a heap.
class TokenMachine {
public:
  explicit TokenMachine(TokenCostModel costs = {}) : costs_(costs) {}

  /// Runs to HALT; throws cgra::Error when `maxBytecodes` is exceeded
  /// (runaway loop), on stack/pc corruption, or when an INVOKE_CGRA is hit
  /// without a registered accelerator hook.
  TokenRunResult run(const BytecodeFunction& fn,
                     std::vector<std::int32_t> initialLocals, HostMemory& heap,
                     std::uint64_t maxBytecodes = 100'000'000,
                     const AcceleratorHook& accelerator = {}) const;

  const TokenCostModel& costs() const { return costs_; }

private:
  TokenCostModel costs_;
};

}  // namespace cgra
