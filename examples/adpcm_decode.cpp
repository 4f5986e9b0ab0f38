// Full reproduction of the paper's application example (§VI): the ADPCM
// decoder on the AMIDAR-like host with CGRA acceleration.
//
//  * runs the kernel on the baseline token machine; the same run's back-edge
//    counts are the profile, which finds the hot loop exactly like AMIDAR's
//    hardware profiler triggers synthesis (Fig. 1);
//  * synthesizes the kernel for the 9-PE mesh through the frontend pipeline
//    (unroll factor 2, as in the evaluation): CDFG → schedule → binary
//    contexts;
//  * executes the invocation (live-in transfer, run, live-out transfer) on
//    the cycle-accurate simulator and verifies the decoded audio against
//    the interpreter bit-exactly;
//  * reports the speedup and estimated synthesis results.
#include <iostream>

#include "apps/kernels.hpp"
#include "arch/factory.hpp"
#include "arch/resource_model.hpp"
#include "ctx/contexts.hpp"
#include "host/profiler.hpp"
#include "host/token_machine.hpp"
#include "kir/interp.hpp"
#include "kir/lower_bytecode.hpp"
#include "kir/lower_cdfg.hpp"
#include "kir/passes/pipeline.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"

int main() {
  using namespace cgra;
  const apps::Workload w = apps::makeAdpcm(416, 1);

  // Golden result.
  HostMemory goldenHeap = w.heap;
  kir::Interpreter interp;
  const auto golden = interp.run(w.fn, w.initialLocals, goldenHeap);
  std::cout << "ADPCM decode, 416 samples (paper workload)\n";

  // Baseline execution, which is also the profile run (Fig. 1: "Profiling
  // detects that a bytecode sequence exceeds threshold").
  const BytecodeFunction bc = kir::lowerToBytecode(w.fn);
  HostMemory baselineHeap = w.heap;
  const TokenMachine machine;
  const TokenRunResult base = machine.run(bc, w.initialLocals, baselineHeap);
  std::cout << "baseline (AMIDAR-like token machine): " << base.cycles
            << " cycles for " << base.bytecodes << " bytecodes\n";

  for (const HotRegion& region : hotRegions(bc, base, /*threshold=*/100))
    std::cout << "profiler: hot region pc[" << region.startPc << ".."
              << region.endPc << "] executed " << region.executions
              << " times -> synthesis candidate\n";

  // Synthesis: frontend pipeline (unroll), lower, schedule, contexts.
  kir::FrontendOptions fo;
  fo.unrollFactor = 2;
  const kir::LoweringResult lowered =
      kir::lowerToCdfg(kir::runFrontendPipeline(w.fn, fo).fn);
  const Composition comp = makeMesh(9);
  const Scheduler scheduler(comp);
  const ScheduleReport result = scheduler.schedule(ScheduleRequest(lowered.graph)).orThrow();
  const ContextImages images = generateContexts(result.schedule, comp);
  std::cout << "synthesized for " << comp.name() << ": "
            << result.schedule.length << " contexts, "
            << images.totalBits() << " context bits, scheduling took "
            << result.metrics.totalMs << " ms (paper: <= 3.1 s)\n";

  // Invocation on the CGRA.
  const Schedule runnable = decodeContexts(images, comp);
  std::map<VarId, std::int32_t> liveIns;
  for (const LiveBinding& lb : runnable.liveIns)
    liveIns[lb.var] = w.initialLocals[lb.var];
  HostMemory cgraHeap = w.heap;
  const Simulator sim(comp, runnable);
  const SimResult r = sim.run(liveIns, cgraHeap);

  const bool match = cgraHeap == goldenHeap;
  std::cout << "CGRA execution: " << r.runCycles << " cycles ("
            << r.dmaLoads << " DMA loads, " << r.dmaStores
            << " DMA stores), audio output "
            << (match ? "matches" : "DOES NOT match")
            << " the reference decoder bit-exactly\n";
  std::cout << "speedup vs baseline: "
            << static_cast<double>(base.cycles) /
                   static_cast<double>(r.runCycles)
            << "x (paper: 7.3x on the 9-PE mesh)\n";

  const ResourceEstimate est = estimateResources(comp);
  std::cout << "estimated synthesis (Virtex-7 model): "
            << est.frequencyMHz << " MHz, LUT " << est.lutLogicPct()
            << "%, DSP " << est.dspPct() << "%, BRAM " << est.bramPct()
            << "%\n";
  return match ? 0 : 1;
}
