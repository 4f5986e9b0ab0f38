// Quickstart: the complete toolflow in ~80 lines.
//
//   1. Describe a kernel in KIR (a saxpy-like loop with a condition).
//   2. Lower it to the scheduler's CDFG.
//   3. Build a CGRA composition (2×2 mesh) and schedule the kernel.
//   4. Generate binary contexts.
//   5. Run the cycle-accurate simulator and read back the results.
//   6. Collect hardware counters and print the utilization report.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "arch/factory.hpp"
#include "ctx/contexts.hpp"
#include "kir/lower_cdfg.hpp"
#include "kir/parser.hpp"
#include "sched/scheduler.hpp"
#include "sim/report.hpp"
#include "sim/simulator.hpp"

int main() {
  using namespace cgra;

  // 1. The kernel: y[i] = a*x[i] + y[i], but clamp negative products to 0.
  const kir::Function fn = kir::parseKernel(R"(
kernel saxpy_clamped(x, y, n, a) {
  var i = 0;
  var p;
  while (i < n) {
    p = a * x[i];
    if (p < 0) { p = 0; }
    y[i] = p + y[i];
    i = i + 1;
  }
})");
  std::cout << fn.toString() << "\n";

  // 2. Lower to the control-and-data-flow graph.
  const kir::LoweringResult lowered = kir::lowerToCdfg(fn);
  std::cout << "CDFG: " << lowered.graph.numNodes() << " nodes, "
            << lowered.graph.numLoops() - 1 << " loop(s)\n";

  // 3. A 4-PE mesh composition and the scheduler.
  const Composition comp = makeMesh(4);
  const Scheduler scheduler(comp);
  const ScheduleReport result = scheduler.schedule(ScheduleRequest(lowered.graph)).orThrow();
  std::cout << "schedule: " << result.schedule.length << " contexts, "
            << result.metrics.copiesInserted << " routing copies, "
            << result.metrics.fusedWrites << " fused writes\n";

  // 4. Binary context images (left-edge register allocation + bit packing).
  const ContextImages images = generateContexts(result.schedule, comp);
  std::cout << "contexts: " << images.totalBits() << " bits total across "
            << comp.numPEs() << " PE memories + C-Box + CCU\n";

  // 5. Simulate the *decoded* images against a small input.
  HostMemory heap;
  const Handle x = heap.alloc({1, -2, 3, -4, 5, -6, 7, -8});
  const Handle y = heap.alloc({10, 10, 10, 10, 10, 10, 10, 10});

  const Schedule runnable = decodeContexts(images, comp);
  std::map<VarId, std::int32_t> liveIns;
  for (const LiveBinding& lb : runnable.liveIns) {
    if (lowered.graph.variable(lb.var).name == "x") liveIns[lb.var] = x;
    if (lowered.graph.variable(lb.var).name == "y") liveIns[lb.var] = y;
    if (lowered.graph.variable(lb.var).name == "n") liveIns[lb.var] = 8;
    if (lowered.graph.variable(lb.var).name == "a") liveIns[lb.var] = 3;
  }
  const Simulator sim(comp, runnable);
  SimOptions simOpts;
  simOpts.collectCounters = true;  // off by default; ~free when off
  const SimResult r = sim.run(liveIns, heap, simOpts);

  std::cout << "ran " << r.runCycles << " cycles (invocation "
            << r.invocationCycles << " incl. transfers)\ny = [";
  for (std::int32_t v : heap.array(y)) std::cout << ' ' << v;
  std::cout << " ]  (expected [ 13 10 19 10 25 10 31 10 ])\n";

  // 6. The observability report: static schedule quality merged with the
  // run's hardware counters (`cgra-tool stats` / `simulate --counters`
  // print the same accessors).
  const Report report = makeReport(runnable, comp, &result.metrics, &r);
  std::cout << "\nachieved utilization "
            << static_cast<int>(report.achievedUtilization() * 100)
            << "% (static " << static_cast<int>(report.staticUtilization() * 100)
            << "%), squash rate "
            << static_cast<int>(report.squashRate() * 100) << "%\n"
            << utilizationHeatmap(runnable, comp, &*r.counters);
  return 0;
}
