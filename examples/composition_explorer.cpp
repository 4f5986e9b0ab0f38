// Composition explorer: the architecture-generator side of the toolflow
// (paper §IV-B, Fig. 7–9).
//
//  * writes a JSON description of a custom inhomogeneous, irregular
//    composition (only two PEs multiply, one PE has a DMA port, irregular
//    links) in the paper's Fig. 8/9 shape;
//  * parses it back and validates the structural constraints;
//  * schedules a kernel onto it without any manual intervention;
//  * emits the generated Verilog and a GraphViz rendering.
//
// Usage: composition_explorer [composition.json]
//   With an argument, loads that JSON instead of the built-in demo.
#include <fstream>
#include <iostream>

#include "apps/kernels.hpp"
#include "arch/composition.hpp"
#include "arch/resource_model.hpp"
#include "kir/lower_cdfg.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"
#include "vgen/verilog.hpp"

namespace {

cgra::Composition makeDemoComposition() {
  using namespace cgra;
  std::vector<PEDescriptor> pes;
  for (unsigned i = 0; i < 5; ++i) {
    PEDescriptor pe = PEDescriptor::fullInteger(
        "PE" + std::to_string(i), /*regfileSize=*/64, /*hasDma=*/i == 2);
    if (i != 1 && i != 3) pe.removeOp(Op::IMUL);  // inhomogeneous operators
    pes.push_back(std::move(pe));
  }
  Interconnect ic(5);  // irregular: a chain with one chord and one one-way
  ic.addBidirectional(0, 1);
  ic.addBidirectional(1, 2);
  ic.addBidirectional(2, 3);
  ic.addBidirectional(3, 4);
  ic.addBidirectional(1, 3);
  ic.addLink(4, 0);
  ic.computeShortestPaths();
  return Composition("demo5", std::move(pes), std::move(ic),
                     /*contextMemoryLength=*/256, /*cboxSlots=*/32);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cgra;

  Composition comp = makeDemoComposition();
  if (argc > 1) {
    std::cout << "loading composition from " << argv[1] << "\n";
    comp = Composition::fromJson(json::parseFile(argv[1]));
  } else {
    json::writeFile("demo5.json", comp.canonicalJson());
    std::cout << "wrote demo5.json (Fig. 8/9-style description); reload it "
                 "with: composition_explorer demo5.json\n";
    comp = Composition::fromJson(json::parseFile("demo5.json"));
  }

  std::cout << "composition \"" << comp.name() << "\": " << comp.numPEs()
            << " PEs, " << comp.interconnect().numLinks() << " links, "
            << comp.dmaPEs().size() << " DMA PE(s), "
            << comp.pesSupporting(Op::IMUL).size()
            << " multiplier-capable PE(s)\n";

  // Schedule the FIR kernel onto it — no manual intervention needed even
  // though the composition is inhomogeneous and irregular.
  const apps::Workload w = apps::makeFir(16, 5, 9);
  const kir::LoweringResult lowered = kir::lowerToCdfg(w.fn);
  const Scheduler scheduler(comp);
  const ScheduleReport result = scheduler.schedule(ScheduleRequest(lowered.graph)).orThrow();
  std::cout << "scheduled " << w.fn.name() << ": " << result.schedule.length
            << " contexts, " << result.metrics.copiesInserted
            << " routing copies\n";

  std::map<VarId, std::int32_t> liveIns;
  for (const LiveBinding& lb : result.schedule.liveIns)
    liveIns[lb.var] = w.initialLocals[lb.var];
  HostMemory heap = w.heap;
  const Simulator sim(comp, result.schedule);
  const SimResult r = sim.run(liveIns, heap);
  std::cout << "simulated: " << r.runCycles << " cycles, energy "
            << r.energy << " (relative units)\n";

  const ResourceEstimate est = estimateResources(comp);
  std::cout << "estimated synthesis: " << est.frequencyMHz << " MHz, "
            << est.dsp << " DSPs, " << est.bram << " BRAMs\n";

  const std::string rtl = generateVerilog(comp);
  std::ofstream("demo5.v") << rtl;
  const VerilogStats vs = analyzeVerilog(rtl);
  std::cout << "wrote demo5.v: " << vs.modules << " modules, " << vs.lines
            << " lines\n";
  std::ofstream("demo5.dot") << comp.toDot();
  std::cout << "wrote demo5.dot\n";
  return 0;
}
