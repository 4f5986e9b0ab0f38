// The examples/kernels/ suite, tested end to end: every .kir kernel is
// parsed, run through the frontend normalization pipeline, scheduled onto a
// mesh and simulated, and the CGRA result is differentially checked against
// the reference interpreter running the ORIGINAL (unnormalized) kernel —
// heap and live-out locals both. The schedule fingerprints are pinned in
// tests/golden/kernel_suite_fingerprints.txt (regenerate with
// CGRA_REGEN_GOLDENS=1, see tools/regen_goldens.sh).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "arch/factory.hpp"
#include "host/token_machine.hpp"
#include "kir/interp.hpp"
#include "kir/lower_bytecode.hpp"
#include "kir/lower_cdfg.hpp"
#include "kir/parser.hpp"
#include "kir/passes/pipeline.hpp"
#include "sched/scheduler.hpp"
#include "sched/validate.hpp"
#include "sim/simulator.hpp"

#ifndef CGRA_KERNEL_DIR
#error "CGRA_KERNEL_DIR must point at examples/kernels"
#endif
#ifndef CGRA_GOLDEN_DIR
#error "CGRA_GOLDEN_DIR must point at tests/golden"
#endif

namespace cgra {
namespace {

/// Reference inputs for one suite kernel: parameters are looked up by name;
/// a name present in `arrays` is allocated on the heap and passed as its
/// handle, anything else must be in `scalars`.
struct SuiteCase {
  std::map<std::string, std::vector<std::int32_t>> arrays;
  std::map<std::string, std::int32_t> scalars;
};

const std::map<std::string, SuiteCase>& suiteCases() {
  static const std::map<std::string, SuiteCase> cases = {
      {"popcount_sum", {{{"data", {7, 255, 1, 0, 1023, -1}}}, {{"n", 6}}}},
      {"saturating_diff",
       {{{"a", {10, 20, 30, -40}},
         {"b", {5, 50, 0, 40}},
         {"out", {0, 0, 0, 0}}},
        {{"n", 4}, {"limit", 15}}}},
      {"fir",
       {{{"x", {1, 2, 3, 4, 5, 6, 7, 8}},
         {"coeff", {1, -2, 1}},
         {"out", {0, 0, 0, 0, 0, 0}}},
        {{"n", 6}, {"taps", 3}}}},
      {"iir",
       {{{"x", {100, 200, -300, 50, 400, -100}}, {"y", {0, 0, 0, 0, 0, 0}}},
        {{"n", 6}, {"a", 200}, {"b", 120}, {"limit", 180}}}},
      {"crc32",
       {{{"data", {49, 50, 51, 52}}, {"out", {0}}}, {{"n", 4}}}},
      {"insertion_sort",
       {{{"a", {5, 2, 9, 1, 7, 3, 3, -8}}}, {{"n", 8}}}},
      {"matmul",
       {{{"a", {1, 2, 3, 4, 5, 6}},
         {"b", {7, 8, 9, 10, 11, 12}},
         {"c", {0, 0, 0, 0}}},
        {{"n", 2}, {"m", 3}, {"p", 2}}}},
      {"string_search",
       {{{"haystack", {104, 101, 108, 108, 111}}, {"needle", {108, 108}}},
        {{"n", 5}, {"m", 2}}}},
      {"vm_accumulate",
       {{{"ops", {0, 5, 2, 3, 4, 0, 1, 7, 5, 0, 0, 9}},
         {"out", {0, 0, 0, 0, 0, 0, 0}}},
        {{"n", 6}}}},
  };
  return cases;
}

std::string kernelPath(const std::string& name) {
  return std::string(CGRA_KERNEL_DIR) + "/" + name + ".kir";
}

/// Builds the initial-locals vector (parameters by position, zeros for
/// non-parameter locals) and allocates the case's arrays into `heap`.
std::vector<std::int32_t> bindInputs(const kir::Function& fn,
                                     const SuiteCase& c, HostMemory& heap) {
  std::vector<std::int32_t> locals(fn.numLocals(), 0);
  for (kir::LocalId l = 0; l < fn.numLocals(); ++l) {
    if (!fn.local(l).isParameter) continue;
    const std::string& name = fn.local(l).name;
    if (auto it = c.arrays.find(name); it != c.arrays.end()) {
      locals[l] = heap.alloc(it->second);
    } else {
      auto sit = c.scalars.find(name);
      if (sit == c.scalars.end())
        throw Error("suite case has no input for parameter '" + name + "'");
      locals[l] = sit->second;
    }
  }
  return locals;
}

class KernelSuite : public ::testing::TestWithParam<std::string> {};

TEST(KernelSuiteIndex, EveryKirFileHasACaseAndViceVersa) {
  std::vector<std::string> onDisk;
  for (const auto& entry :
       std::filesystem::directory_iterator(CGRA_KERNEL_DIR))
    if (entry.path().extension() == ".kir")
      onDisk.push_back(entry.path().stem().string());
  EXPECT_EQ(onDisk.size(), suiteCases().size())
      << "examples/kernels/ and suiteCases() disagree — add the reference "
         "inputs (and golden fingerprint) for new suite kernels here";
  for (const std::string& name : onDisk)
    EXPECT_TRUE(suiteCases().contains(name)) << name;
}

TEST_P(KernelSuite, NormalizesToStructuredForm) {
  const kir::Function fn = kir::parseKernelFile(kernelPath(GetParam()));
  EXPECT_EQ(fn.name(), GetParam()) << "file name and kernel name must match";
  const kir::FrontendResult r = kir::runFrontendPipeline(fn);
  EXPECT_EQ(kir::firstIrregularConstruct(r.fn), nullptr) << r.fn.toString();
}

TEST_P(KernelSuite, CgraMatchesInterpreter) {
  const kir::Function fn = kir::parseKernelFile(kernelPath(GetParam()));
  const SuiteCase& c = suiteCases().at(GetParam());

  HostMemory refHeap;
  const std::vector<std::int32_t> initial = bindInputs(fn, c, refHeap);
  HostMemory goldenHeap = refHeap;
  kir::Interpreter interp;
  const auto golden = interp.run(fn, initial, goldenHeap);

  const kir::Function norm = kir::runFrontendPipeline(fn).fn;
  const kir::LoweringResult lowered = kir::lowerToCdfg(norm);
  FactoryOptions fo;
  fo.contextMemoryLength = 2048;
  fo.cboxSlots = 64;
  const Composition comp = makeMesh(9, fo);
  const ScheduleReport report =
      Scheduler(comp).schedule(ScheduleRequest(lowered.graph)).orThrow();
  const auto issues = verifySchedule(report.schedule, &comp, &lowered.graph);
  ASSERT_TRUE(issues.empty()) << issues.front();

  std::map<VarId, std::int32_t> liveIns;
  for (const LiveBinding& lb : report.schedule.liveIns)
    liveIns[lb.var] = initial[lb.var];
  HostMemory simHeap = refHeap;
  const SimResult r = Simulator(comp, report.schedule).run(liveIns, simHeap);

  // Heap AND live-outs: string_search writes no arrays at all, so its
  // entire observable result is the `result` live-out.
  EXPECT_TRUE(simHeap == goldenHeap) << GetParam();
  for (const auto& [var, value] : r.liveOuts) {
    const std::string& name = lowered.graph.variable(var).name;
    // Pipeline-introduced guard temps ($brkN...) have no counterpart in the
    // original function; every original local must agree.
    try {
      EXPECT_EQ(value, golden.locals[fn.localByName(name)])
          << GetParam() << " live-out " << name;
    } catch (const Error&) {
      EXPECT_EQ(name[0], '$') << GetParam() << " unexpected live-out "
                              << name;
    }
  }
}

TEST_P(KernelSuite, BaselineBytecodeMatchesInterpreter) {
  const kir::Function fn = kir::parseKernelFile(kernelPath(GetParam()));
  const SuiteCase& c = suiteCases().at(GetParam());
  HostMemory h1;
  const std::vector<std::int32_t> initial = bindInputs(fn, c, h1);
  HostMemory h2 = h1;
  kir::Interpreter interp;
  const auto golden = interp.run(fn, initial, h1);
  const TokenMachine tm;
  const auto result = tm.run(kir::lowerToBytecode(fn), initial, h2);
  EXPECT_TRUE(h1 == h2) << GetParam();
  // The bytecode backend appends a scratch local for switch dispatch;
  // compare the function's own locals.
  for (kir::LocalId l = 0; l < fn.numLocals(); ++l)
    EXPECT_EQ(result.locals[l], golden.locals[l])
        << GetParam() << " local " << fn.local(l).name;
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, KernelSuite,
    ::testing::Values("popcount_sum", "saturating_diff", "fir", "iir",
                      "crc32", "insertion_sort", "matmul", "string_search",
                      "vm_accumulate"),
    [](const auto& info) { return info.param; });

/// One golden line per kernel: "<name> <schedule-fingerprint>" on the
/// widened mesh9 the differential test schedules onto.
std::string fingerprintLine(const std::string& name) {
  const kir::Function fn = kir::parseKernelFile(kernelPath(name));
  const kir::LoweringResult lowered =
      kir::lowerToCdfg(kir::runFrontendPipeline(fn).fn);
  FactoryOptions fo;
  fo.contextMemoryLength = 2048;
  fo.cboxSlots = 64;
  const ScheduleReport r =
      Scheduler(makeMesh(9, fo)).schedule(ScheduleRequest(lowered.graph));
  return name + " " +
         (r.ok ? std::to_string(r.schedule.fingerprint())
               : ("FAIL:" + std::string(failureReasonName(r.failure.reason))));
}

TEST(KernelSuiteIndex, FingerprintsMatchGolden) {
  const std::string path =
      std::string(CGRA_GOLDEN_DIR) + "/kernel_suite_fingerprints.txt";
  std::vector<std::string> names;
  for (const auto& [name, c] : suiteCases()) names.push_back(name);

  if (std::getenv("CGRA_REGEN_GOLDENS") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    for (const std::string& name : names) out << fingerprintLine(name) << "\n";
    return;
  }

  std::ifstream golden(path);
  ASSERT_TRUE(golden.is_open()) << "missing " << path;
  std::vector<std::string> expected;
  for (std::string line; std::getline(golden, line);)
    if (!line.empty()) expected.push_back(line);
  ASSERT_EQ(expected.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i)
    EXPECT_EQ(fingerprintLine(names[i]), expected[i]);
}

}  // namespace
}  // namespace cgra
