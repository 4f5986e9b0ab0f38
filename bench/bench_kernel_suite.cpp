// The examples/kernels/ suite on the CGRA: every .kir kernel is parsed, run
// through the frontend normalization pipeline (break/continue/return,
// short-circuit booleans and switch demoted to structured if/while),
// scheduled onto the 9-PE mesh and simulated, with the sequential token
// machine on the UNnormalized kernel as the baseline. Every simulation is
// differentially checked against the reference interpreter; any mismatch
// makes the bench exit nonzero. Cycle counts and context counts are
// deterministic and gated by tools/bench_compare.py against
// bench/baselines/BENCH_kernel_suite.json.
#include <algorithm>
#include <filesystem>
#include <vector>

#include "bench_common.hpp"
#include "kir/interp.hpp"
#include "kir/parser.hpp"
#include "kir/passes/pipeline.hpp"

#ifndef CGRA_KERNEL_DIR
#error "CGRA_KERNEL_DIR must point at examples/kernels"
#endif

namespace {

using namespace cgra;

/// Reference inputs per kernel, mirroring the doc-comment example commands
/// in the .kir files (larger where the examples would underfill a mesh).
struct SuiteInputs {
  std::map<std::string, std::vector<std::int32_t>> arrays;
  std::map<std::string, std::int32_t> scalars;
};

std::map<std::string, SuiteInputs> suiteInputs() {
  return {
      {"popcount_sum",
       {{{"data", {7, 255, 1, 0, 1023, -1, 4096, 77}}}, {{"n", 8}}}},
      {"saturating_diff",
       {{{"a", {10, 20, 30, -40, 90, 3}},
         {"b", {5, 50, 0, 40, -90, 3}},
         {"out", {0, 0, 0, 0, 0, 0}}},
        {{"n", 6}, {"limit", 15}}}},
      {"fir",
       {{{"x", {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}},
         {"coeff", {1, -2, 1}},
         {"out", {0, 0, 0, 0, 0, 0, 0, 0, 0, 0}}},
        {{"n", 10}, {"taps", 3}}}},
      {"iir",
       {{{"x", {100, 200, -300, 50, 400, -100, 250, -250}},
         {"y", {0, 0, 0, 0, 0, 0, 0, 0}}},
        {{"n", 8}, {"a", 200}, {"b", 120}, {"limit", 180}}}},
      {"crc32",
       {{{"data", {49, 50, 51, 52, 53, 54, 55, 56}}, {"out", {0}}},
        {{"n", 8}}}},
      {"insertion_sort",
       {{{"a", {5, 2, 9, 1, 7, 3, 3, -8, 40, 0}}}, {{"n", 10}}}},
      {"matmul",
       {{{"a", {1, 2, 3, 4, 5, 6, 7, 8, 9}},
         {"b", {9, 8, 7, 6, 5, 4, 3, 2, 1}},
         {"c", {0, 0, 0, 0, 0, 0, 0, 0, 0}}},
        {{"n", 3}, {"m", 3}, {"p", 3}}}},
      {"string_search",
       {{{"haystack", {104, 101, 108, 108, 111, 32, 119, 111, 114, 108, 100}},
         {"needle", {111, 114}}},
        {{"n", 11}, {"m", 2}}}},
      {"vm_accumulate",
       {{{"ops", {0, 5, 2, 3, 4, 0, 1, 7, 0, 2, 3, 1, 5, 0, 0, 9}},
         {"out", {0, 0, 0, 0, 0, 0, 0, 0, 0}}},
        {{"n", 8}}}},
  };
}

std::vector<std::int32_t> bindInputs(const kir::Function& fn,
                                     const SuiteInputs& in,
                                     HostMemory& heap) {
  std::vector<std::int32_t> locals(fn.numLocals(), 0);
  for (kir::LocalId l = 0; l < fn.numLocals(); ++l) {
    if (!fn.local(l).isParameter) continue;
    const std::string& name = fn.local(l).name;
    if (auto it = in.arrays.find(name); it != in.arrays.end())
      locals[l] = heap.alloc(it->second);
    else
      locals[l] = in.scalars.at(name);
  }
  return locals;
}

}  // namespace

int main() {
  using namespace cgra;
  using namespace cgra::bench;

  std::cout << "== Kernel suite: normalization pipeline + CGRA vs. "
               "sequential baseline ==\n";
  BenchReport report("kernel_suite");
  FactoryOptions fo;
  fo.contextMemoryLength = 2048;
  fo.cboxSlots = 64;
  const Composition comp = makeMesh(9, fo);
  report.info("composition", comp.name());

  const auto inputs = suiteInputs();
  std::vector<std::string> names;
  for (const auto& entry :
       std::filesystem::directory_iterator(CGRA_KERNEL_DIR))
    if (entry.path().extension() == ".kir")
      names.push_back(entry.path().stem().string());
  std::sort(names.begin(), names.end());

  TextTable table({"Kernel", "CGRA cycles", "Baseline cycles", "Speedup",
                   "Contexts", "CDFG nodes"});
  unsigned mismatches = 0;
  double schedulingMs = 0.0;
  for (const std::string& name : names) {
    const kir::Function fn = kir::parseKernelFile(
        std::string(CGRA_KERNEL_DIR) + "/" + name + ".kir");
    const SuiteInputs& in = inputs.at(name);

    HostMemory refHeap;
    const std::vector<std::int32_t> initial = bindInputs(fn, in, refHeap);
    HostMemory goldenHeap = refHeap;
    kir::Interpreter interp;
    const auto golden = interp.run(fn, initial, goldenHeap);

    // Baseline: token machine on the unnormalized kernel (jump lowering).
    HostMemory baseHeap = refHeap;
    const TokenMachine tm;
    const TokenRunResult base =
        tm.run(kir::lowerToBytecode(fn), initial, baseHeap);
    if (!(baseHeap == goldenHeap)) ++mismatches;

    // CGRA: frontend pipeline, then schedule + simulate.
    const kir::Function norm = kir::runFrontendPipeline(fn).fn;
    const kir::LoweringResult lowered = kir::lowerToCdfg(norm);
    const ScheduleReport sched =
        Scheduler(comp).schedule(ScheduleRequest(lowered.graph)).orThrow();
    schedulingMs += sched.metrics.totalMs;

    std::map<VarId, std::int32_t> liveIns;
    for (const LiveBinding& lb : sched.schedule.liveIns)
      liveIns[lb.var] = initial[lb.var];
    HostMemory simHeap = refHeap;
    SimOptions simOpts;
    simOpts.collectCounters = countersEnabled();
    const SimResult sim =
        Simulator(comp, sched.schedule).run(liveIns, simHeap, simOpts);
    if (!(simHeap == goldenHeap)) ++mismatches;
    for (const auto& [var, value] : sim.liveOuts)
      if (var < fn.numLocals() && value != golden.locals[var]) ++mismatches;

    report.metric("cycles_" + name, sim.runCycles);
    report.metric("baselineCycles_" + name, base.cycles);
    report.metric("contexts_" + name,
                  static_cast<std::uint64_t>(sched.schedule.length));
    table.addRow({name, std::to_string(sim.runCycles),
                  std::to_string(base.cycles),
                  fmt(static_cast<double>(base.cycles) /
                          static_cast<double>(sim.runCycles),
                      2) + "x",
                  std::to_string(sched.schedule.length),
                  std::to_string(lowered.graph.numNodes())});
  }
  table.print(std::cout);

  report.metric("kernels", static_cast<std::uint64_t>(names.size()));
  report.metric("mismatches", mismatches);
  report.timing("schedulingMs", schedulingMs);
  report.write();
  if (mismatches != 0) {
    std::cout << "ERROR: " << mismatches
              << " differential mismatch(es) against the interpreter\n";
    return 1;
  }
  std::cout << "\nall " << names.size()
            << " kernels match the reference interpreter (CGRA and "
               "baseline)\n";
  return 0;
}
