#include "sim/accelerated_host.hpp"

#include "kir/lower_bytecode.hpp"
#include "kir/lower_cdfg.hpp"
#include "kir/passes/pipeline.hpp"
#include "sim/simulator.hpp"

namespace cgra {

AcceleratedHost::AcceleratedHost(Composition comp, TokenCostModel costs,
                                 SchedulerOptions schedOpts)
    : comp_(std::move(comp)), machine_(costs), schedOpts_(schedOpts) {}

unsigned AcceleratedHost::addKernel(const kir::Function& kernel,
                                    unsigned unrollFactor) {
  // Locals the pipeline adds (exit guards, temporaries) come after the
  // kernel's own, so they stay internal to the CGRA: the shared frame maps
  // only the first kernel.numLocals().
  kir::FrontendOptions fo;
  fo.unrollFactor = unrollFactor;
  kir::LoweringResult lowered =
      kir::lowerToCdfg(kir::runFrontendPipeline(kernel, fo).fn);
  const Scheduler scheduler(comp_, schedOpts_);
  Kernel k;
  k.schedule = scheduler.schedule(ScheduleRequest(lowered.graph)).orThrow().schedule;
  k.numLocals = static_cast<unsigned>(kernel.numLocals());
  k.localToVar = std::move(lowered.localToVar);
  kernels_.push_back(std::move(k));

  // Re-pack all kernels into the shared context memory (§IV-A.3).
  std::vector<Schedule> all;
  all.reserve(kernels_.size());
  for (const Kernel& kern : kernels_) all.push_back(kern.schedule);
  packed_ = packSchedules(all, comp_);
  return static_cast<unsigned>(kernels_.size() - 1);
}

unsigned AcceleratedHost::contextsUsed() const { return packed_.merged.length; }

const SchedulePlacement& AcceleratedHost::placement(unsigned kernelId) const {
  CGRA_ASSERT(kernelId < packed_.placements.size());
  return packed_.placements[kernelId];
}

BytecodeFunction AcceleratedHost::assemble(const std::vector<Stage>& stages,
                                           const std::string& name) const {
  BytecodeFunction out;
  out.name = name;
  for (const Stage& stage : stages) {
    if (const auto* host = std::get_if<HostStage>(&stage)) {
      CGRA_ASSERT(host->fn != nullptr);
      const BytecodeFunction part = kir::lowerToBytecode(*host->fn);
      const std::int32_t offset = static_cast<std::int32_t>(out.code.size());
      out.numLocals = std::max<unsigned>(out.numLocals, part.numLocals);
      for (BcInstr in : part.code) {
        if (in.op == Bc::HALT) continue;  // stages fall through
        // Branch targets are stage-relative.
        if (bcArg(in.op) == BcArg::Target) in.arg += offset;
        out.code.push_back(in);
      }
      // A stage's trailing HALT may be branched to; those targets now point
      // at the next stage's first instruction, which is exactly fall-through.
    } else {
      const auto& cgra = std::get<CgraStage>(stage);
      if (cgra.kernelId >= kernels_.size())
        throw Error("assemble: unknown kernel id " +
                    std::to_string(cgra.kernelId));
      out.numLocals = std::max(out.numLocals, kernels_[cgra.kernelId].numLocals);
      out.code.push_back(
          BcInstr{Bc::INVOKE_CGRA, static_cast<std::int32_t>(cgra.kernelId)});
    }
  }
  out.code.push_back(BcInstr{Bc::HALT, 0});
  return out;
}

AcceleratedRunResult AcceleratedHost::run(
    const std::vector<Stage>& stages, std::vector<std::int32_t> initialLocals,
    HostMemory& heap) const {
  const BytecodeFunction app = assemble(stages);

  AcceleratedRunResult result;
  // An empty context memory is no schedule: a host-only app never builds it.
  std::optional<Simulator> sim;
  if (!kernels_.empty()) sim.emplace(comp_, packed_.merged);
  AcceleratorHook hook = [&](std::int32_t id, std::vector<std::int32_t>& locals,
                             HostMemory& hookHeap) -> std::uint64_t {
    const Kernel& k = kernels_[static_cast<std::size_t>(id)];
    const SchedulePlacement& pl = packed_.placements[static_cast<std::size_t>(id)];
    std::map<VarId, std::int32_t> liveIns;
    for (const LiveBinding& lb : pl.liveIns) {
      // CGRA variables map 1:1 onto the kernel's locals.
      for (unsigned l = 0; l < k.numLocals; ++l)
        if (k.localToVar[l] == lb.var) liveIns[lb.var] = locals[l];
    }
    // Transfer the initial CCNT and run the kernel's window (§IV-A.3).
    const SimResult r =
        sim->runWindow(liveIns, hookHeap, pl.liveIns, pl.liveOuts,
                       pl.startCcnt, pl.startCcnt + pl.length);
    for (const auto& [var, value] : r.liveOuts)
      for (unsigned l = 0; l < k.numLocals; ++l)
        if (k.localToVar[l] == var) locals[l] = value;
    ++result.cgraInvocations;
    result.cgraCycles += r.invocationCycles;
    return r.invocationCycles;
  };

  const TokenRunResult host =
      machine_.run(app, std::move(initialLocals), heap, 100'000'000, hook);
  result.locals = host.locals;
  result.totalCycles = host.cycles;
  result.hostCycles = host.cycles - result.cgraCycles;
  result.hostBytecodes = host.bytecodes;
  return result;
}

}  // namespace cgra
