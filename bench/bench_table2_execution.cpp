// Reproduces Table II: "Execution times for different CGRAs in clock cycles"
// plus the synthesis-result rows (frequency, LUT logic/memory, DSP, BRAM
// utilization) for the Fig. 13 meshes AND the Fig. 14 irregular compositions
// A–F, the AMIDAR-baseline speedup statement (§VI-B: "the CGRA with 9 PEs
// ... is 7.3 times faster than the AMIDAR processor"; AMIDAR alone takes
// 926 k cycles) and the RF-width experiment ("an alternative composition of
// 4PE using 32 entries shows an increase of 7.2 % in clock frequency").
// It also records the §VI-C scheduling time ("for the ADPCM decoder the
// scheduling and context generation takes at most 3.1 s") as warn-only
// per-composition timings.
#include "bench_common.hpp"

int main() {
  using namespace cgra;
  using namespace cgra::bench;

  std::cout << "== Table II: execution times and synthesis results ==\n";
  const AdpcmSetup setup = AdpcmSetup::make();
  BenchReport report("table2_execution");
  const std::uint64_t amidar = baselineCycles(setup);
  report.metric("amidarCycles", amidar);
  std::cout << "AMIDAR baseline: " << fmtKilo(amidar)
            << " cycles (paper: 926k on real AMIDAR)\n\n";

  std::vector<std::pair<std::string, Composition>> comps;
  for (unsigned n : meshSizes())
    comps.emplace_back(std::to_string(n) + " PEs", makeMesh(n));
  for (char c : irregularLabels())
    comps.emplace_back(std::string("8 PEs ") + c, makeIrregular(c));

  TextTable table({"Composition", "Cycles", "Speedup", "Freq (MHz)",
                   "LUT-logic (%)", "LUT-mem (%)", "DSP (%)", "BRAM (%)"});
  std::uint64_t best = ~0ull;
  std::string bestName;
  double slowestMs = 0.0;
  for (const auto& [name, comp] : comps) {
    const AdpcmRun run = runAdpcmOn(setup, comp);
    report.metric("cycles_" + comp.name(), run.cycles);
    report.timing("schedulingMs_" + comp.name(), run.schedulingMs);
    report.timing("contextGenMs_" + comp.name(), run.contextGenMs);
    slowestMs = std::max(slowestMs, run.schedulingMs + run.contextGenMs);
    if (run.report.counters) {
      // Achieved utilization is a higher-is-better quantity; export its
      // complement so every gated metric stays lower-is-better.
      report.metric("idleFraction_" + comp.name(),
                    1.0 - run.report.achievedUtilization());
      report.counters(comp.name(), run.report.counters->toJson());
    }
    table.addRow({name, fmtKilo(run.cycles),
                  fmt(static_cast<double>(amidar) /
                          static_cast<double>(run.cycles),
                      1) + "x",
                  fmt(run.resources.frequencyMHz, 1),
                  fmt(run.resources.lutLogicPct(), 2),
                  fmt(run.resources.lutMemoryPct(), 2),
                  fmt(run.resources.dspPct(), 2),
                  fmt(run.resources.bramPct(), 2)});
    if (run.cycles < best) {
      best = run.cycles;
      bestName = name;
    }
  }
  table.print(std::cout);
  std::cout << "\nfastest composition: " << bestName << " ("
            << fmtKilo(best) << " cycles, speedup "
            << fmt(static_cast<double>(amidar) / static_cast<double>(best), 1)
            << "x vs AMIDAR; paper: 9-PE mesh best among meshes at 7.3x, "
               "D best / B worst among irregulars)\n";

  // RF width experiment (§VI-B).
  FactoryOptions rf128;
  FactoryOptions rf32;
  rf32.regfileSize = 32;
  const double f128 = estimateResources(makeMesh(4, rf128)).frequencyMHz;
  const double f32 = estimateResources(makeMesh(4, rf32)).frequencyMHz;
  std::cout << "\nRF width experiment (4 PEs): 128 entries -> "
            << fmt(f128, 1) << " MHz, 32 entries -> " << fmt(f32, 1)
            << " MHz (+" << fmt(100.0 * (f32 - f128) / f128, 1)
            << "%; paper: +7.2% -> 111.1 MHz)\n";
  std::cout << "scheduling + context generation: at most "
            << fmt(slowestMs, 1) << " ms per composition (paper: at most "
            << "3.1 s on an Intel Core i7-6700)\n";
  report.timing("scheduleAndContextsMsMax", slowestMs);
  report.metric("bestCycles", best);
  report.info("bestComposition", bestName);
  report.write();
  return 0;
}
