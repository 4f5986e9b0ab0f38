// Pass-pipeline equivalence tests. The scheduler was decomposed into
// explicit passes over a shared immutable ArchModel; these tests pin the
// refactor to the monolith's observable behaviour:
//  * schedule fingerprints over a 60-seed random-kernel corpus (with CSE /
//    unrolling mixed in) must match the checked-in golden file captured
//    from the pre-refactor scheduler;
//  * decision traces must still carry the pass-boundary phase spans
//    (setup / plan / finalize) in order, for a mappable kernel on a mesh
//    and on an irregular composition alike.
// The byte-level golden `explain` transcripts live in tests/golden/ and are
// diffed by the cli_explain_golden_* tests in tools/CMakeLists.txt.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/kernels.hpp"
#include "arch/factory.hpp"
#include "kir/lower_cdfg.hpp"
#include "kir/passes/cse_pass.hpp"
#include "kir/passes/unroll_pass.hpp"
#include "kir/random_kernel.hpp"
#include "sched/scheduler.hpp"

#ifndef CGRA_GOLDEN_DIR
#error "CGRA_GOLDEN_DIR must point at tests/golden"
#endif

namespace cgra {
namespace {

Composition compositionForSeed(std::uint64_t seed) {
  const unsigned idx = static_cast<unsigned>(seed % 12);
  if (idx < 6) return makeMesh(meshSizes()[idx]);
  return makeIrregular(irregularLabels()[idx - 6]);
}

/// One corpus line, exactly as captured into the golden file: either the
/// schedule fingerprint or "FAIL:<typed-reason>".
std::string corpusLine(std::uint64_t seed) {
  const kir::RandomKernel k = kir::generateRandomKernel(seed);
  kir::Function fn = k.fn;
  if (seed % 3 == 1) fn = kir::eliminateCommonSubexpressions(fn);
  if (seed % 4 == 2) fn = kir::unrollLoops(fn, 2, true);
  const kir::LoweringResult lowered = kir::lowerToCdfg(fn);
  Composition comp = compositionForSeed(seed);
  // Widen the budgets like the random-kernel property suite does, so the
  // corpus exercises scheduling rather than tiny context memories.
  comp = Composition(comp.name(), comp.pes(), comp.interconnect(), 1024, 64);
  const Scheduler scheduler(comp);
  const ScheduleReport r = scheduler.schedule(ScheduleRequest(lowered.graph));
  return std::to_string(seed) + " " +
         (r.ok ? std::to_string(r.schedule.fingerprint())
               : ("FAIL:" + std::string(failureReasonName(r.failure.reason))));
}

TEST(PassPipeline, RandomKernelFingerprintsMatchGolden) {
  const std::string path =
      std::string(CGRA_GOLDEN_DIR) + "/random_kernel_fingerprints.txt";
  // Regeneration mode (tools/regen_goldens.sh): rewrite the corpus from the
  // current scheduler instead of comparing. Intentional behavior changes
  // refresh the golden in the same commit; accidental ones fail the diff.
  if (std::getenv("CGRA_REGEN_GOLDENS") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    for (std::uint64_t seed = 1; seed <= 60; ++seed)
      out << corpusLine(seed) << "\n";
    return;
  }

  std::ifstream golden(path);
  ASSERT_TRUE(golden.is_open()) << "missing tests/golden corpus file";
  std::vector<std::string> expected;
  for (std::string line; std::getline(golden, line);)
    if (!line.empty()) expected.push_back(line);
  ASSERT_EQ(expected.size(), 60u);

  for (std::uint64_t seed = 1; seed <= 60; ++seed)
    EXPECT_EQ(corpusLine(seed), expected[seed - 1]) << "seed " << seed;
}

/// Collects the ordered phase-boundary markers of a run's trace.
std::vector<std::string> phaseSpans(const Trace& trace) {
  std::vector<std::string> spans;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& e = trace.event(i);
    if (e.kind == TraceEventKind::PhaseBegin)
      spans.push_back("B:" + std::string(e.detail.str));
    else if (e.kind == TraceEventKind::PhaseEnd)
      spans.push_back("E:" + std::string(e.detail.str));
  }
  return spans;
}

TEST(PassPipeline, TraceCarriesPassBoundaries) {
  struct Case {
    Composition comp;
    Cdfg graph;
  };
  const Case cases[] = {
      {makeMesh(9), kir::lowerToCdfg(apps::makeAdpcm(8, 1).fn).graph},
      {makeIrregular('D'), kir::lowerToCdfg(apps::makeGcd(546, 2394).fn).graph},
  };
  for (const Case& c : cases) {
    const Scheduler scheduler(c.comp);
    ScheduleRequest request(c.graph);
    request.trace.enabled = true;
    const ScheduleReport report = scheduler.schedule(request);
    ASSERT_TRUE(report.ok) << c.comp.name();
    ASSERT_NE(report.trace, nullptr);
    const std::vector<std::string> expected = {"B:setup", "E:setup", "B:plan",
                                               "E:plan", "B:finalize",
                                               "E:finalize"};
    EXPECT_EQ(phaseSpans(*report.trace), expected) << c.comp.name();
  }
}

TEST(PassPipeline, FailedRunClosesOpenPhaseSpan) {
  // An unmappable run must still emit balanced B/E pairs (the Chrome trace
  // contract) with the Failure event in between.
  const Composition comp = makeMesh(4);
  const Cdfg graph = kir::lowerToCdfg(apps::makeGcd(546, 2394).fn).graph;
  SchedulerOptions opts;
  opts.maxContexts = 4;
  const Scheduler scheduler(comp, opts);
  ScheduleRequest request(graph);
  request.trace.enabled = true;
  const ScheduleReport report = scheduler.schedule(request);
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.failure.reason, FailureReason::ContextBudget);
  const std::vector<std::string> expected = {"B:setup", "E:setup", "B:plan",
                                             "E:plan"};
  EXPECT_EQ(phaseSpans(*report.trace), expected);
}

}  // namespace
}  // namespace cgra
