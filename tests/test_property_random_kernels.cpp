// Property-based tests: randomly generated structured kernels (nested
// counted + data-dependent loops, if/else trees, array traffic) are run
// through the complete pipeline on varying compositions and must match the
// reference interpreter bit-exactly. The frontend passes (CSE, unrolling)
// are mixed in to stress their interaction with the scheduler.
#include <gtest/gtest.h>

#include "arch/factory.hpp"
#include "ctx/contexts.hpp"
#include "host/token_machine.hpp"
#include "kir/interp.hpp"
#include "kir/lower_bytecode.hpp"
#include "kir/lower_cdfg.hpp"
#include "kir/passes/cse_pass.hpp"
#include "kir/passes/exit_normalize_pass.hpp"
#include "kir/passes/pipeline.hpp"
#include "kir/passes/shortcircuit_pass.hpp"
#include "kir/passes/switch_lower_pass.hpp"
#include "kir/passes/unroll_pass.hpp"
#include "kir/random_kernel.hpp"
#include "sched/scheduler.hpp"
#include "sched/validate.hpp"
#include "sim/simulator.hpp"

namespace cgra {
namespace {

Composition compositionForSeed(std::uint64_t seed) {
  // Rotate through all 12 paper compositions.
  const unsigned idx = static_cast<unsigned>(seed % 12);
  if (idx < 6) return makeMesh(meshSizes()[idx]);
  return makeIrregular(irregularLabels()[idx - 6]);
}

struct GoldenRun {
  std::vector<std::int32_t> locals;
  HostMemory heap;
};

GoldenRun golden(const kir::RandomKernel& k, const kir::Function& fn) {
  GoldenRun g;
  g.heap = k.heap;
  kir::Interpreter interp;
  g.locals = interp.run(fn, k.initialLocals, g.heap).locals;
  return g;
}

class RandomKernelPipeline : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomKernelPipeline, CgraMatchesInterpreter) {
  const std::uint64_t seed = GetParam();
  const kir::RandomKernel k = kir::generateRandomKernel(seed);

  // Optionally apply frontend passes, varying by seed.
  kir::Function fn = k.fn;
  if (seed % 3 == 1) fn = kir::eliminateCommonSubexpressions(fn);
  if (seed % 4 == 2) fn = kir::unrollLoops(fn, 2, true);

  const GoldenRun g = golden(k, fn);

  const kir::LoweringResult lowered = kir::lowerToCdfg(fn);
  FactoryOptions opts;
  opts.contextMemoryLength = 1024;  // generated kernels can be long
  Composition comp = compositionForSeed(seed);
  comp = Composition(comp.name(), comp.pes(), comp.interconnect(),
                     opts.contextMemoryLength, 64);

  const Scheduler scheduler(comp);
  const ScheduleReport result = scheduler.schedule(ScheduleRequest(lowered.graph)).orThrow();
  const auto issues = verifySchedule(result.schedule, &comp, &lowered.graph);
  EXPECT_TRUE(issues.empty()) << "seed " << seed << ": " << issues.front();

  std::map<VarId, std::int32_t> liveIns;
  for (const LiveBinding& lb : result.schedule.liveIns)
    liveIns[lb.var] = k.initialLocals[lb.var];
  HostMemory heap = k.heap;
  const Simulator sim(comp, result.schedule);
  const SimResult r = sim.run(liveIns, heap);

  EXPECT_TRUE(heap == g.heap) << "seed " << seed << ": heap mismatch\n"
                              << fn.toString();
  for (const auto& [var, value] : r.liveOuts)
    EXPECT_EQ(value, g.locals[var])
        << "seed " << seed << ": live-out "
        << lowered.graph.variable(var).name << "\n"
        << fn.toString();
}

TEST_P(RandomKernelPipeline, ContextLevelMatchesInterpreter) {
  const std::uint64_t seed = GetParam() + 1000;
  const kir::RandomKernel k = kir::generateRandomKernel(seed);
  const GoldenRun g = golden(k, k.fn);

  const kir::LoweringResult lowered = kir::lowerToCdfg(k.fn);
  FactoryOptions fo;
  fo.contextMemoryLength = 1024;
  fo.cboxSlots = 64;
  const Composition comp = makeMesh(meshSizes()[seed % 6], fo);

  const Scheduler scheduler(comp);
  const ScheduleReport result = scheduler.schedule(ScheduleRequest(lowered.graph)).orThrow();
  const ContextImages images = generateContexts(result.schedule, comp);
  const Schedule dec = decodeContexts(images, comp);

  std::map<VarId, std::int32_t> liveIns;
  for (const LiveBinding& lb : dec.liveIns)
    liveIns[lb.var] = k.initialLocals[lb.var];
  HostMemory heap = k.heap;
  Simulator(comp, dec).run(liveIns, heap);
  EXPECT_TRUE(heap == g.heap) << "seed " << seed << "\n" << k.fn.toString();
}

TEST_P(RandomKernelPipeline, BaselineMatchesInterpreter) {
  const std::uint64_t seed = GetParam() + 2000;
  const kir::RandomKernel k = kir::generateRandomKernel(seed);
  const GoldenRun g = golden(k, k.fn);

  const BytecodeFunction bc = kir::lowerToBytecode(k.fn);
  HostMemory heap = k.heap;
  const TokenMachine tm;
  const TokenRunResult r = tm.run(bc, k.initialLocals, heap);
  EXPECT_TRUE(heap == g.heap) << "seed " << seed;
  EXPECT_EQ(r.locals, g.locals) << "seed " << seed;
}

TEST_P(RandomKernelPipeline, PassesPreserveSemantics) {
  const std::uint64_t seed = GetParam() + 3000;
  const kir::RandomKernel k = kir::generateRandomKernel(seed);
  const GoldenRun g = golden(k, k.fn);

  for (int variant = 0; variant < 3; ++variant) {
    kir::Function fn = k.fn;
    switch (variant) {
      case 0: fn = kir::eliminateCommonSubexpressions(fn); break;
      case 1: fn = kir::unrollLoops(fn, 2, true); break;
      case 2:
        fn = kir::unrollLoops(kir::eliminateCommonSubexpressions(fn), 3,
                              false);
        break;
    }
    HostMemory heap = k.heap;
    kir::Interpreter interp;
    const auto r = interp.run(fn, k.initialLocals, heap);
    EXPECT_TRUE(heap == g.heap) << "seed " << seed << " variant " << variant;
    for (kir::LocalId l = 0; l < k.fn.numLocals(); ++l)
      EXPECT_EQ(r.locals[l], g.locals[l])
          << "seed " << seed << " variant " << variant << " local " << l;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomKernelPipeline,
                         ::testing::Range<std::uint64_t>(1, 101));

// Distinct kernel shapes: each option set stresses a different part of the
// scheduler (deep loop nesting, heavy array traffic, pure control flow).
struct ShapeCase {
  const char* name;
  kir::RandomKernelOptions opts;
};

class RandomKernelShapes
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(RandomKernelShapes, CgraMatchesInterpreter) {
  const auto [shapeIdx, seed] = GetParam();
  kir::RandomKernelOptions opts;
  switch (shapeIdx) {
    case 0:  // deep nesting, small bodies
      opts.maxDepth = 4;
      opts.maxStmtsPerBlock = 2;
      opts.maxExprDepth = 2;
      break;
    case 1:  // array-heavy
      opts.numArrays = 4;
      opts.arraySizeLog2 = 3;
      opts.maxDepth = 2;
      break;
    case 2:  // pure control flow, no heap traffic
      opts.numArrays = 0;
      opts.maxDepth = 3;
      opts.allowCompareAsValue = true;
      break;
    case 3:  // wide straight-line blocks, shallow control
      opts.maxDepth = 1;
      opts.maxStmtsPerBlock = 8;
      opts.maxExprDepth = 4;
      break;
  }
  const kir::RandomKernel k = kir::generateRandomKernel(seed * 7919, opts);
  const GoldenRun g = golden(k, k.fn);

  const kir::LoweringResult lowered = kir::lowerToCdfg(k.fn);
  FactoryOptions fo;
  fo.contextMemoryLength = 2048;
  fo.cboxSlots = 64;
  const Composition comp =
      shapeIdx % 2 ? makeMesh(meshSizes()[seed % 6], fo)
                   : Composition("irr", makeIrregular(irregularLabels()[seed % 6]).pes(),
                                 makeIrregular(irregularLabels()[seed % 6]).interconnect(),
                                 fo.contextMemoryLength, fo.cboxSlots);

  const Scheduler scheduler(comp);
  const ScheduleReport result = scheduler.schedule(ScheduleRequest(lowered.graph)).orThrow();
  const auto issues = verifySchedule(result.schedule, &comp, &lowered.graph);
  EXPECT_TRUE(issues.empty()) << "shape " << shapeIdx << " seed " << seed
                              << ": " << issues.front();

  std::map<VarId, std::int32_t> liveIns;
  for (const LiveBinding& lb : result.schedule.liveIns)
    liveIns[lb.var] = k.initialLocals[lb.var];
  HostMemory heap = k.heap;
  const SimResult r = Simulator(comp, result.schedule).run(liveIns, heap);
  EXPECT_TRUE(heap == g.heap)
      << "shape " << shapeIdx << " seed " << seed << "\n" << k.fn.toString();
  for (const auto& [var, value] : r.liveOuts)
    EXPECT_EQ(value, g.locals[var])
        << "shape " << shapeIdx << " seed " << seed << " live-out "
        << lowered.graph.variable(var).name << "\n" << k.fn.toString();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RandomKernelShapes,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Range<std::uint64_t>(1, 16)));

// ---------------------------------------------------------------------------
// Irregular constructs: kernels generated with break / continue / return,
// short-circuit booleans and switch mixed in. Each normalization pass alone
// must preserve interpreter semantics, and the full pipeline output must
// survive the complete CGRA flow differentially (bounded fuzz).

kir::RandomKernel irregularKernel(std::uint64_t seed) {
  kir::RandomKernelOptions opts;
  opts.irregularConstructs = true;
  return kir::generateRandomKernel(seed, opts);
}

/// Passes append helper locals ($sc / $sw / $brk...), so equivalence is
/// heap plus the ORIGINAL function's locals prefix.
void expectPrefixEquivalent(const kir::RandomKernel& k,
                            const kir::Function& transformed,
                            const GoldenRun& g, const char* label) {
  HostMemory heap = k.heap;
  kir::Interpreter interp;
  const auto r = interp.run(transformed, k.initialLocals, heap);
  EXPECT_TRUE(heap == g.heap) << label << "\n" << transformed.toString();
  for (kir::LocalId l = 0; l < k.fn.numLocals(); ++l)
    EXPECT_EQ(r.locals[l], g.locals[l])
        << label << " local " << k.fn.local(l).name << "\n"
        << transformed.toString();
}

class IrregularRandomKernel : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(IrregularRandomKernel, EachPassPreservesSemantics) {
  const std::uint64_t seed = GetParam();
  const kir::RandomKernel k = irregularKernel(seed);
  const GoldenRun g = golden(k, k.fn);

  expectPrefixEquivalent(k, kir::lowerShortCircuit(k.fn), g, "shortcircuit");
  expectPrefixEquivalent(
      k, kir::lowerSwitches(k.fn, kir::SwitchStrategy::Linear), g,
      "switch-linear");
  expectPrefixEquivalent(
      k, kir::lowerSwitches(k.fn, kir::SwitchStrategy::Bucket), g,
      "switch-bucket");
  expectPrefixEquivalent(k, kir::normalizeExits(k.fn), g, "exit-normalize");
}

TEST_P(IrregularRandomKernel, PipelinePreservesSemantics) {
  const std::uint64_t seed = GetParam() + 4000;
  const kir::RandomKernel k = irregularKernel(seed);
  const GoldenRun g = golden(k, k.fn);

  const kir::Function norm = kir::runFrontendPipeline(k.fn).fn;
  EXPECT_EQ(kir::firstIrregularConstruct(norm), nullptr)
      << "seed " << seed << "\n" << norm.toString();
  expectPrefixEquivalent(k, norm, g, "pipeline");

  // With the optimization stages on, composed behind normalization.
  kir::FrontendOptions opts;
  opts.cse = true;
  opts.unrollFactor = 2;
  const kir::Function optd = kir::runFrontendPipeline(k.fn, opts).fn;
  EXPECT_EQ(kir::firstIrregularConstruct(optd), nullptr);
  expectPrefixEquivalent(k, optd, g, "pipeline+cse+unroll");
}

TEST_P(IrregularRandomKernel, BaselineMatchesInterpreter) {
  // The bytecode backend lowers the irregular constructs directly with
  // jumps — no normalization involved — and must agree with the
  // tree-walking interpreter.
  const std::uint64_t seed = GetParam() + 5000;
  const kir::RandomKernel k = irregularKernel(seed);
  const GoldenRun g = golden(k, k.fn);

  HostMemory heap = k.heap;
  const TokenMachine tm;
  const TokenRunResult r = tm.run(kir::lowerToBytecode(k.fn),
                                  k.initialLocals, heap);
  EXPECT_TRUE(heap == g.heap) << "seed " << seed << "\n" << k.fn.toString();
  // The bytecode backend appends a scratch local for switch dispatch;
  // compare the function's own locals.
  for (kir::LocalId l = 0; l < k.fn.numLocals(); ++l)
    EXPECT_EQ(r.locals[l], g.locals[l])
        << "seed " << seed << " local " << l << "\n" << k.fn.toString();
}

TEST_P(IrregularRandomKernel, CgraMatchesInterpreter) {
  // Bounded differential fuzz of the full flow: generate -> normalize ->
  // CDFG -> schedule -> simulate, against the interpreter on the original.
  const std::uint64_t seed = GetParam() + 6000;
  const kir::RandomKernel k = irregularKernel(seed);
  const GoldenRun g = golden(k, k.fn);

  const kir::Function norm = kir::runFrontendPipeline(k.fn).fn;
  const kir::LoweringResult lowered = kir::lowerToCdfg(norm);
  FactoryOptions fo;
  fo.contextMemoryLength = 4096;  // guard flags make normalized bodies long
  fo.cboxSlots = 64;
  const Composition comp = makeMesh(meshSizes()[seed % 3 + 3], fo);

  const ScheduleReport result =
      Scheduler(comp).schedule(ScheduleRequest(lowered.graph)).orThrow();
  const auto issues = verifySchedule(result.schedule, &comp, &lowered.graph);
  EXPECT_TRUE(issues.empty()) << "seed " << seed << ": " << issues.front();

  std::map<VarId, std::int32_t> liveIns;
  for (const LiveBinding& lb : result.schedule.liveIns)
    liveIns[lb.var] =
        lb.var < k.initialLocals.size() ? k.initialLocals[lb.var] : 0;
  HostMemory heap = k.heap;
  const SimResult r = Simulator(comp, result.schedule).run(liveIns, heap);
  EXPECT_TRUE(heap == g.heap) << "seed " << seed << "\n" << norm.toString();
  for (const auto& [var, value] : r.liveOuts) {
    if (var >= k.fn.numLocals()) continue;  // pipeline-introduced temp
    EXPECT_EQ(value, g.locals[var])
        << "seed " << seed << ": live-out "
        << lowered.graph.variable(var).name << "\n" << norm.toString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IrregularRandomKernel,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace cgra
