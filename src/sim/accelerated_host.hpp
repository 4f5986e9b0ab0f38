// Host/CGRA co-execution: the last steps of the paper's synthesis flow
// (Fig. 1: "Patch original bytecode sequence" → "Execution of the bytecode
// sequence on the CGRA").
//
// An application is assembled from stages that share one local-variable
// frame: bytecode stages run on the AMIDAR-like token machine, kernel stages
// are synthesized for the CGRA (frontend pipeline, including unrolling →
// CDFG → schedule → contexts) and replaced in the assembled bytecode by a single INVOKE_CGRA instruction.
// When the machine reaches the patched instruction it forwards execution to
// the CGRA: live-in locals are transferred (2 cycles each, Fig. 6), the run
// executes on the cycle-accurate simulator, live-outs are written back, and
// the host resumes. The host is idle during the run (§III), so total cycles
// are simply additive.
//
// Stage functions must agree on local indices for the values they share
// (build them from a common schema; see examples/accelerated_app.cpp).
#pragma once

#include <optional>
#include <variant>

#include "ctx/multi.hpp"
#include "host/token_machine.hpp"
#include "kir/kir.hpp"
#include "sched/scheduler.hpp"

namespace cgra {

/// One application stage: host bytecode or an accelerated kernel.
struct HostStage {
  const kir::Function* fn = nullptr;
};
struct CgraStage {
  unsigned kernelId = 0;
};
using Stage = std::variant<HostStage, CgraStage>;

/// Result of one accelerated application run.
struct AcceleratedRunResult {
  std::vector<std::int32_t> locals;
  std::uint64_t totalCycles = 0;
  std::uint64_t hostCycles = 0;      ///< bytecode execution
  std::uint64_t cgraCycles = 0;      ///< CGRA runs including transfers
  std::uint64_t cgraInvocations = 0;
  std::uint64_t hostBytecodes = 0;
};

/// Assembles and executes patched applications against one composition.
class AcceleratedHost {
public:
  explicit AcceleratedHost(Composition comp, TokenCostModel costs = {},
                           SchedulerOptions schedOpts = {});

  /// Synthesizes a kernel for the CGRA through kir::runFrontendPipeline, so
  /// break/continue/return/switch/&&/|| are accepted (calls are not: there
  /// is no Program to inline from). `unrollFactor` is the pipeline's partial
  /// unrolling, as in the paper's evaluation; above kir::kMaxUnrollFactor it
  /// throws. Returns the accelerator id used by CgraStage.
  unsigned addKernel(const kir::Function& kernel, unsigned unrollFactor = 2);

  /// Contexts occupied by the packed context memory holding all registered
  /// kernels (§IV-A.3: "the context memories can potentially hold multiple
  /// schedules"); each invocation transfers the kernel's start CCNT.
  unsigned contextsUsed() const;

  /// The packed placement record of a kernel (start CCNT, window length,
  /// physical live bindings).
  const SchedulePlacement& placement(unsigned kernelId) const;

  /// Assembles the stages into a single patched bytecode function
  /// (concatenated host stages with branch-target fixups; kernel stages
  /// become one INVOKE_CGRA each) — inspectable via disassemble().
  BytecodeFunction assemble(const std::vector<Stage>& stages,
                            const std::string& name = "app") const;

  /// Runs the assembled application.
  AcceleratedRunResult run(const std::vector<Stage>& stages,
                           std::vector<std::int32_t> initialLocals,
                           HostMemory& heap) const;

  const Composition& composition() const { return comp_; }

private:
  struct Kernel {
    Schedule schedule;  ///< virtual registers (pre-packing)
    unsigned numLocals = 0;
    std::vector<VarId> localToVar;
  };

  Composition comp_;
  TokenMachine machine_;
  SchedulerOptions schedOpts_;
  std::vector<Kernel> kernels_;
  PackedSchedules packed_;  ///< rebuilt on every addKernel
};

}  // namespace cgra
