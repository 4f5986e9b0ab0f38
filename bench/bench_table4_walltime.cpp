// Reproduces Table IV: "ADPCM decode execution times in milliseconds" —
// cycles divided by the achievable clock frequency for both multiplier
// implementations. The paper's conclusion: "Due to higher clock frequencies
// for CGRAs with block multipliers, the execution time is shorter in that
// case" — the 2-cycle multiplier wins in wall-clock despite more cycles.
//
// The 12 (mesh size × multiplier) scheduling problems are independent, so
// they run through the parallel sweep engine; simulation stays serial.
#include <deque>

#include "bench_common.hpp"
#include "sched/sweep.hpp"

int main() {
  using namespace cgra;
  using namespace cgra::bench;

  std::cout << "== Table IV: ADPCM decode execution times in milliseconds ==\n";
  const AdpcmSetup setup = AdpcmSetup::make();
  BenchReport report("table4_walltime");

  FactoryOptions single;
  single.blockMultiplier = false;

  // Schedule every variant in one sweep: rows alternate single/block per
  // mesh size, so job 2i is the single-cycle variant of meshSizes()[i].
  std::deque<Composition> comps;
  std::vector<SweepJob> jobs;
  for (unsigned n : meshSizes()) {
    for (const bool block : {false, true}) {
      comps.push_back(block ? makeMesh(n) : makeMesh(n, single));
      jobs.push_back(SweepJob{&comps.back(), &setup.graph,
                              comps.back().name() +
                                  (block ? "+block" : "+single"),
                              SchedulerOptions{}});
    }
  }
  const SweepReport sweep = runSweep(jobs);
  std::cout << "scheduled " << jobs.size() << " variants in "
            << fmt(sweep.wallTimeMs, 1) << " ms on " << sweep.threadsUsed
            << " thread(s), " << sweep.routingCacheEntries
            << " arch model(s)\n";
  report.timing("sweepWallMs", sweep.wallTimeMs);
  // Exclusive self-time of each scheduler pass, merged over the sweep's 12
  // jobs (DESIGN.md §13): gateable per pass via bench_compare --gate-timing.
  report.timing("passAnalysisMs", sweep.aggregate.passAnalysisMs);
  report.timing("passCandidateMs", sweep.aggregate.passCandidateMs);
  report.timing("passCostModelMs", sweep.aggregate.passCostModelMs);
  report.timing("passPlacementMs", sweep.aggregate.passPlacementMs);
  report.timing("passRoutingMs", sweep.aggregate.passRoutingMs);
  report.timing("passFusingMs", sweep.aggregate.passFusingMs);
  report.timing("passCboxMs", sweep.aggregate.passCboxMs);
  report.timing("passLoopMs", sweep.aggregate.passLoopMs);
  report.timing("passFinalizeMs", sweep.aggregate.passFinalizeMs);

  auto wallMs = [&](std::size_t job, const Composition& comp) -> double {
    const SweepJobResult& r = sweep.results[job];
    if (!r.ok) throw Error("table4: scheduling failed: " + r.failure.message);
    std::map<VarId, std::int32_t> liveIns;
    for (const LiveBinding& lb : r.schedule.liveIns)
      liveIns[lb.var] = setup.workload.initialLocals[lb.var];
    HostMemory heap = setup.workload.heap;
    const Simulator sim(comp, r.schedule);
    SimOptions simOpts;
    simOpts.collectCounters = countersEnabled();
    const SimResult sr = sim.run(liveIns, heap, simOpts);
    if (sr.counters) report.counters(jobs[job].label, sr.counters->toJson());
    // Modeled milliseconds: deterministic cycles over the deterministic
    // frequency estimate — a gateable metric, not a wall-clock timing.
    return static_cast<double>(sr.runCycles) /
           (estimateResources(comp).frequencyMHz * 1000.0);
  };

  TextTable table({"", "4 PEs", "6 PEs", "8 PEs", "9 PEs", "12 PEs", "16 PEs"});
  std::vector<std::string> rowSingle{"Single cycle multiplier"};
  std::vector<std::string> rowBlock{"Dual cycle multiplier"};
  unsigned blockWins = 0;
  for (std::size_t i = 0; i < meshSizes().size(); ++i) {
    const double msSingle = wallMs(2 * i, comps[2 * i]);
    const double msBlock = wallMs(2 * i + 1, comps[2 * i + 1]);
    rowSingle.push_back(fmt(msSingle, 3));
    rowBlock.push_back(fmt(msBlock, 3));
    if (msBlock < msSingle) ++blockWins;
    const std::string mesh = std::to_string(meshSizes()[i]);
    report.metric("modeledMsSingle_mesh" + mesh, msSingle);
    report.metric("modeledMsBlock_mesh" + mesh, msBlock);
  }
  table.addRow(rowSingle);
  table.addRow(rowBlock);
  table.print(std::cout);

  std::cout << "\nblock (dual-cycle) multiplier wins wall-clock on "
            << blockWins << "/6 compositions (paper: 6/6)\n";
  report.write();
  return 0;
}
