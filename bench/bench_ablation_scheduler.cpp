// Ablation bench for the scheduler's design choices called out in §V (and
// DESIGN.md): attraction-based PE ordering (§V-G), pWRITE fusing (§V-E),
// longest-path candidate priority (§V-F), and the partial-unroll frontend
// option (Fig. 1, used at factor 2 in the evaluation). Each knob is toggled
// independently on the 8-PE mesh and composition D; the table reports
// executed cycles and schedule length.
#include "bench_common.hpp"

int main() {
  using namespace cgra;
  using namespace cgra::bench;

  std::cout << "== Ablation: scheduler design choices (ADPCM, 416 samples) "
               "==\n";
  BenchReport report("ablation_scheduler");
  const apps::Workload base = apps::makeAdpcm(kAdpcmSamples, 1);

  struct Variant {
    std::string name;
    SchedulerOptions opts;
    unsigned unroll;
  };
  SchedulerOptions noAttraction;
  noAttraction.useAttraction = false;
  SchedulerOptions noFusing;
  noFusing.fuseWrites = false;
  SchedulerOptions noPriority;
  noPriority.longestPathPriority = false;
  const std::vector<Variant> variants = {
      {"full (paper configuration)", SchedulerOptions{}, 2},
      {"no attraction criterion", noAttraction, 2},
      {"no pWRITE fusing", noFusing, 2},
      {"no longest-path priority", noPriority, 2},
      {"no loop unrolling", SchedulerOptions{}, 1},
      {"unroll factor 3", SchedulerOptions{}, 3},
  };

  for (const std::string compName : {std::string("mesh8"), std::string("D")}) {
    const Composition comp =
        compName == "mesh8" ? makeMesh(8) : makeIrregular('D');
    std::cout << "\n-- composition " << comp.name() << " --\n";
    TextTable table({"Variant", "Cycles", "Contexts", "Max RF", "Copies",
                     "Fused", "Sched ms"});
    for (const Variant& v : variants) {
      AdpcmSetup setup;
      setup.workload = apps::makeAdpcm(kAdpcmSamples, 1);
      setup.unrolled =
          kir::unrollLoops(setup.workload.fn, v.unroll, true);
      setup.graph = kir::lowerToCdfg(setup.unrolled).graph;

      const Scheduler scheduler(comp, v.opts);
      const ScheduleReport result = scheduler.schedule(ScheduleRequest(setup.graph)).orThrow();
      const RegAllocation alloc = allocateRegisters(result.schedule, comp);
      std::map<VarId, std::int32_t> liveIns;
      for (const LiveBinding& lb : result.schedule.liveIns)
        liveIns[lb.var] = setup.workload.initialLocals[lb.var];
      HostMemory heap = setup.workload.heap;
      const Simulator sim(comp, result.schedule);
      const SimResult r = sim.run(liveIns, heap);

      table.addRow({v.name, fmtKilo(r.runCycles),
                    std::to_string(result.schedule.length),
                    std::to_string(alloc.maxRfEntries()),
                    std::to_string(result.metrics.copiesInserted),
                    std::to_string(result.metrics.fusedWrites),
                    fmt(result.metrics.totalMs, 2)});

      // One gated series per (composition, variant); variant index keeps the
      // metric keys short and stable.
      const std::string key =
          comp.name() + "_v" + std::to_string(&v - variants.data());
      report.metric("cycles_" + key, r.runCycles);
      report.metric("contexts_" + key,
                    static_cast<std::uint64_t>(result.schedule.length));
      report.timing("schedulingMs_" + key, result.metrics.totalMs);
    }
    table.print(std::cout);
  }
  report.write();
  return 0;
}
