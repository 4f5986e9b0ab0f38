// Tests for the KIR frontend normalization pipeline (src/kir/passes/):
// each pass alone (short-circuit lowering, switch lowering, exit
// normalization) is checked for interpreter equivalence and for the
// structural guarantees it advertises; the assembled pipeline is checked
// for identity on construct-free kernels, for composition with unrolling
// and CSE, and end-to-end (pipeline -> CDFG -> schedule -> simulate).
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "arch/factory.hpp"
#include "kir/interp.hpp"
#include "kir/lower_cdfg.hpp"
#include "kir/parser.hpp"
#include "kir/passes/exit_normalize_pass.hpp"
#include "kir/passes/inline_pass.hpp"
#include "kir/passes/pass_utils.hpp"
#include "kir/passes/pipeline.hpp"
#include "kir/passes/shortcircuit_pass.hpp"
#include "kir/passes/switch_lower_pass.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"

namespace cgra::kir {
namespace {

/// Runs `fn` and `transformed` on the same inputs and expects identical
/// heap plus identical values for every local of the ORIGINAL function
/// (passes append helper locals; those are not compared).
void expectEquivalent(const Function& fn, const Function& transformed,
                      const std::vector<std::int32_t>& locals,
                      const HostMemory& heap = HostMemory()) {
  Interpreter interp;
  HostMemory h1 = heap, h2 = heap;
  const auto before = interp.run(fn, locals, h1);
  const auto after = interp.run(transformed, locals, h2);
  EXPECT_TRUE(h1 == h2) << fn.name();
  for (LocalId l = 0; l < fn.numLocals(); ++l)
    EXPECT_EQ(after.locals[l], before.locals[l])
        << fn.name() << " local " << fn.local(l).name << "\n"
        << transformed.toString();
}

// ---------------------------------------------------------------------------
// Short-circuit lowering

TEST(ShortCircuit, RemovesLogicalOperators) {
  const Function fn = parseKernel(
      "kernel f(a,b,c) { var r = a > 0 && (b > 0 || c > 0); }");
  const Function low = lowerShortCircuit(fn);
  EXPECT_FALSE(containsExprKind(low, ExprKind::LogicalAnd));
  EXPECT_FALSE(containsExprKind(low, ExprKind::LogicalOr));
  for (std::int32_t a : {-1, 1})
    for (std::int32_t b : {-1, 1})
      for (std::int32_t c : {-1, 1}) expectEquivalent(fn, low, {a, b, c});
}

TEST(ShortCircuit, PreservesLaziness) {
  // The guarded load is out of bounds whenever n == 0; lowering must keep
  // it inside the conditional.
  const Function fn = parseKernel(
      "kernel f(data, n) { var r = n > 0 && data[n - 1] > 2; }");
  const Function low = lowerShortCircuit(fn);
  Interpreter interp;
  HostMemory heap;
  const Handle h = heap.alloc(std::vector<std::int32_t>{9});
  HostMemory h1 = heap;
  EXPECT_EQ(interp.run(low, {h, 0}, h1).locals[fn.localByName("r")], 0);
  HostMemory h2 = heap;
  EXPECT_EQ(interp.run(low, {h, 1}, h2).locals[fn.localByName("r")], 1);
}

TEST(ShortCircuit, LowersWhileCondition) {
  // insertion sort's inner loop guard: j > 0 && a[j-1] > key. The lowered
  // loop gains a break (cleaned up by exit normalization, which runs next
  // in the pipeline) but must behave identically.
  const Function fn = parseKernelFile(
      std::string(CGRA_KERNEL_DIR) + "/insertion_sort.kir");
  const Function low = lowerShortCircuit(fn);
  EXPECT_FALSE(containsExprKind(low, ExprKind::LogicalAnd));
  HostMemory heap;
  const Handle a = heap.alloc({5, 2, 9, 1, 7, 3});
  expectEquivalent(fn, low, {a, 6}, heap);
}

// ---------------------------------------------------------------------------
// Switch lowering

Function makeSwitchProbe(std::size_t numCases, bool withDefault) {
  FunctionBuilder b("swp");
  const LocalId op = b.param("op");
  const LocalId r = b.localVar("r");
  std::vector<std::int32_t> values;
  std::vector<StmtId> arms;
  for (std::size_t i = 0; i < numCases; ++i) {
    // Sparse, unsorted, with negatives: stresses the bucket ordering.
    const std::int32_t v =
        static_cast<std::int32_t>((i * 7) % (numCases * 3)) - 4;
    values.push_back(v);
    arms.push_back(b.assign(r, b.cint(1000 + v)));
  }
  const StmtId dflt = withDefault ? b.assign(r, b.cint(-77)) : kNoStmt;
  return b.finish(b.block({
      b.assign(r, b.cint(0)),
      b.switchStmt(b.use(op), std::move(values), std::move(arms), dflt),
  }));
}

TEST(SwitchLower, LinearAndBucketAgreeWithInterpreter) {
  for (std::size_t cases : {1u, 2u, 5u, 6u, 9u}) {
    for (bool withDefault : {false, true}) {
      const Function fn = makeSwitchProbe(cases, withDefault);
      for (SwitchStrategy strat :
           {SwitchStrategy::Linear, SwitchStrategy::Bucket,
            SwitchStrategy::Auto}) {
        const Function low = lowerSwitches(fn, strat);
        EXPECT_FALSE(containsStmtKind(low, StmtKind::Switch));
        // Sweep every value around the case range, hitting every arm, the
        // gaps between cases, and both out-of-range sides.
        for (std::int32_t op = -8;
             op <= static_cast<std::int32_t>(cases) * 3 + 4; ++op)
          expectEquivalent(fn, low, {op});
      }
    }
  }
}

TEST(SwitchLower, AutoPicksBucketForWideSwitches) {
  // Auto = Linear below the bucket threshold (6 cases), Bucket at/above.
  // The bucket tree introduces a range-test structure whose statement count
  // differs from the linear ladder, so the strategies are distinguishable.
  const Function wide = makeSwitchProbe(8, true);
  const Function linear = lowerSwitches(wide, SwitchStrategy::Linear);
  const Function bucket = lowerSwitches(wide, SwitchStrategy::Bucket);
  const Function autoed = lowerSwitches(wide, SwitchStrategy::Auto);
  EXPECT_NE(countStmtNodes(linear), countStmtNodes(bucket));
  EXPECT_EQ(autoed.toString(), bucket.toString());

  const Function narrow = makeSwitchProbe(3, true);
  EXPECT_EQ(lowerSwitches(narrow, SwitchStrategy::Auto).toString(),
            lowerSwitches(narrow, SwitchStrategy::Linear).toString());
}

// ---------------------------------------------------------------------------
// Exit normalization

TEST(ExitNormalize, RemovesBreakContinueReturn) {
  const Function fn = parseKernel(R"(
    kernel f(data, n) {
      var sum = 0;
      var i = 0;
      while (i < n) {
        var v = data[i];
        i = i + 1;
        if (v == 0) { break; }
        if (v < 0) { continue; }
        if (v > 100) { return sum + v; }
        sum = sum + v;
      }
      return sum;
    }
  )");
  const Function norm = normalizeExits(fn);
  EXPECT_EQ(firstIrregularConstruct(norm), nullptr) << norm.toString();
  HostMemory heap;
  const Handle h = heap.alloc({3, -7, 4, 200, 5, 0, 9});
  for (std::int32_t n : {0, 1, 2, 3, 4, 5, 6, 7})
    expectEquivalent(fn, norm, {h, n}, heap);
}

TEST(ExitNormalize, ContinueOnlyLoopKeepsRunning) {
  // continue must re-test the condition and proceed with later iterations
  // (a wrong lowering that treats continue like break terminates early).
  const Function fn = parseKernel(R"(
    kernel f(n) {
      var sum = 0;
      var i = 0;
      while (i < n) {
        i = i + 1;
        if ((i & 1) == 1) { continue; }
        sum = sum + i;
      }
    }
  )");
  const Function norm = normalizeExits(fn);
  EXPECT_EQ(firstIrregularConstruct(norm), nullptr);
  Interpreter interp;
  HostMemory heap;
  EXPECT_EQ(interp.run(norm, {10}, heap).locals[fn.localByName("sum")],
            2 + 4 + 6 + 8 + 10);
}

TEST(ExitNormalize, NestedLoopsExitIndependently) {
  const Function fn = parseKernelFile(
      std::string(CGRA_KERNEL_DIR) + "/string_search.kir");
  const Function norm = normalizeExits(fn);
  EXPECT_EQ(firstIrregularConstruct(norm), nullptr);
  Interpreter interp;
  const LocalId result = fn.localByName("result");
  // hello / ll -> 2; hello / lo -> 3; hello / xy -> -1 (return never fires,
  // result keeps its initializer).
  const std::vector<std::pair<std::vector<std::int32_t>, std::int32_t>>
      cases = {{{108, 108}, 2}, {{108, 111}, 3}, {{120, 121}, -1}};
  for (const auto& [needle, expected] : cases) {
    HostMemory heap;
    const Handle hs = heap.alloc({104, 101, 108, 108, 111});
    const Handle nd = heap.alloc(needle);
    const std::vector<std::int32_t> in = {
        hs, 5, nd, static_cast<std::int32_t>(needle.size())};
    HostMemory h2 = heap;
    EXPECT_EQ(interp.run(norm, in, h2).locals[result], expected);
    expectEquivalent(fn, norm, in, heap);
  }
}

TEST(ExitNormalize, IdentityOnStructuredCode) {
  // A kernel with no irregular constructs must come back byte-identical —
  // the pass (and the whole pipeline) leaves structured code alone.
  const Function fn = parseKernelFile(std::string(CGRA_KERNEL_DIR) +
                                      "/matmul.kir");
  EXPECT_EQ(normalizeExits(fn).toString(), fn.toString());
  const FrontendResult piped = runFrontendPipeline(fn);
  EXPECT_EQ(piped.fn.toString(), fn.toString());
  for (const StageRecord& s : piped.stages)
    if (s.name != "input") {
      EXPECT_FALSE(s.ran) << s.name;
    }
}

// ---------------------------------------------------------------------------
// Pipeline composition

TEST(Pipeline, UnrollComposesWithExitNormalize) {
  // Regression: a break inside a loop that is later unrolled. Unrolling
  // runs AFTER normalization, so it only ever sees structured loops; the
  // unrolled guard variables must still stop the copies mid-body.
  const Function fn = parseKernel(R"(
    kernel f(data, n, stop) {
      var sum = 0;
      var i = 0;
      while (i < n) {
        if (data[i] == stop) { break; }
        sum = sum + data[i];
        i = i + 1;
      }
    }
  )");
  HostMemory heap;
  const Handle h = heap.alloc({4, 1, 5, 9, 2, 6, 5, 3});
  for (unsigned factor : {2u, 3u, 4u}) {
    FrontendOptions opts;
    opts.unrollFactor = factor;
    const FrontendResult r = runFrontendPipeline(fn, opts);
    EXPECT_EQ(firstIrregularConstruct(r.fn), nullptr) << "factor " << factor;
    for (std::int32_t stop : {9, 5, 77})
      expectEquivalent(fn, r.fn, {h, 8, stop}, heap);
  }
}

TEST(Pipeline, CseComposesWithNormalizedExits) {
  FrontendOptions opts;
  opts.cse = true;
  const Function fn = parseKernelFile(std::string(CGRA_KERNEL_DIR) +
                                      "/vm_accumulate.kir");
  const FrontendResult r = runFrontendPipeline(fn, opts);
  EXPECT_EQ(firstIrregularConstruct(r.fn), nullptr);
  HostMemory heap;
  const Handle ops = heap.alloc({0, 5, 2, 3, 4, 0, 1, 7, 5, 0, 0, 9});
  const Handle out = heap.alloc(std::vector<std::int32_t>(7, 0));
  expectEquivalent(fn, r.fn, {ops, 6, out}, heap);
}

TEST(Pipeline, InlinedCalleeReturnStaysInsideCallee) {
  // callee: clamp(p) { if (p > 9) { return 9; } return p; }
  // caller: out = clamp(a) + 1. The callee's return must not leak into the
  // caller's control flow after inlining.
  Program prog;
  FunctionBuilder cb("clamp");
  const LocalId p = cb.param("p");
  const LocalId res = cb.localVar("result");
  (void)res;
  const FuncId callee = prog.addFunction(cb.finish(cb.block({
      cb.ifElse(cb.gt(cb.use(p), cb.cint(9)),
                cb.block({cb.ret(cb.cint(9))})),
      cb.ret(cb.use(p)),
  })));

  FunctionBuilder mb("main");
  const LocalId a = mb.param("a");
  const LocalId out = mb.localVar("out");
  const Function caller = mb.finish(mb.block({
      mb.call(out, callee, {mb.use(a)}),
      mb.assign(out, mb.add(mb.use(out), mb.cint(1))),
  }));

  const Function flat = inlineCalls(prog, caller);
  EXPECT_EQ(firstIrregularConstruct(flat), nullptr) << flat.toString();
  Interpreter interp(&prog);
  Interpreter flatInterp;
  for (std::int32_t v : {3, 9, 50}) {
    HostMemory h1, h2;
    EXPECT_EQ(flatInterp.run(flat, {v}, h2).locals[out],
              interp.run(caller, {v}, h1).locals[out]);
  }
}

TEST(Pipeline, RejectsCallsWithoutProgram) {
  Program prog;
  FunctionBuilder cb("id");
  const LocalId p = cb.param("p");
  const LocalId res = cb.localVar("result");
  const FuncId callee = prog.addFunction(
      cb.finish(cb.block({cb.assign(res, cb.use(p))})));
  FunctionBuilder mb("main");
  const LocalId a = mb.param("a");
  const LocalId out = mb.localVar("out");
  const Function caller =
      mb.finish(mb.block({mb.call(out, callee, {mb.use(a)})}));
  EXPECT_THROW(runFrontendPipeline(caller), Error);
  EXPECT_NO_THROW(runFrontendPipeline(caller, {}, &prog));
}

TEST(Pipeline, UnrollFactorIsBounded) {
  const Function fn = parseKernel(R"(
    kernel f(n) {
      var i = 0;
      while (i < n) { i = i + 1; }
    }
  )");
  FrontendOptions opts;
  opts.unrollFactor = kMaxUnrollFactor;
  const FrontendResult r = runFrontendPipeline(fn, opts);
  expectEquivalent(fn, r.fn, {37});
  opts.unrollFactor = kMaxUnrollFactor + 1;
  try {
    runFrontendPipeline(fn, opts);
    FAIL() << "an unroll factor above the bound must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("limit of 16"), std::string::npos)
        << e.what();
  }
}

TEST(Pipeline, StageRecordsAreDeterministic) {
  const Function fn = parseKernelFile(std::string(CGRA_KERNEL_DIR) +
                                      "/vm_accumulate.kir");
  FrontendOptions opts;
  opts.captureStages = true;
  const FrontendResult r1 = runFrontendPipeline(fn, opts);
  const FrontendResult r2 = runFrontendPipeline(fn, opts);
  ASSERT_EQ(r1.stages.size(), r2.stages.size());
  const std::vector<std::string> expectedNames = {
      "input",          "inline", "shortcircuit", "switch-lower",
      "exit-normalize", "cse",    "unroll"};
  ASSERT_EQ(r1.stages.size(), expectedNames.size());
  for (std::size_t i = 0; i < r1.stages.size(); ++i) {
    EXPECT_EQ(r1.stages[i].name, expectedNames[i]);
    EXPECT_EQ(r1.stages[i].ran, r2.stages[i].ran);
    EXPECT_EQ(r1.stages[i].ir, r2.stages[i].ir) << r1.stages[i].name;
  }
  // vm_accumulate exercises ||, switch and break/continue; with default
  // options those three normalization stages run, inline/cse/unroll skip.
  auto stage = [&](const std::string& name) -> const StageRecord& {
    for (const StageRecord& s : r1.stages)
      if (s.name == name) return s;
    throw Error("no stage " + name);
  };
  EXPECT_TRUE(stage("shortcircuit").ran);
  EXPECT_TRUE(stage("switch-lower").ran);
  EXPECT_TRUE(stage("exit-normalize").ran);
  EXPECT_FALSE(stage("inline").ran);
  EXPECT_FALSE(stage("cse").ran);
  EXPECT_FALSE(stage("unroll").ran);
}

// ---------------------------------------------------------------------------
// CDFG boundary

TEST(LowerCdfg, RejectsIrregularConstructsByName) {
  auto expectRejects = [](const std::string& src, const std::string& what) {
    const Function fn = parseKernel(src);
    try {
      lowerToCdfg(fn);
      FAIL() << "expected rejection: " << src;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("normalization pipeline"),
                std::string::npos)
          << e.what();
    }
    // The fix it suggests works: the pipeline output lowers cleanly.
    EXPECT_NO_THROW(lowerToCdfg(runFrontendPipeline(fn).fn));
  };
  expectRejects("kernel f(a) { while (a > 0) { break; } }", "a 'break'");
  expectRejects("kernel f(a) { while (a > 0) { continue; } }",
                "a 'continue'");
  expectRejects("kernel f(a) { return a; }", "a 'return'");
  expectRejects("kernel f(a) { var r = a > 0 && a < 9; }",
                "a short-circuit '&&'");
  expectRejects("kernel f(a) { var r = a > 0 || a < 9; }",
                "a short-circuit '||'");
  expectRejects("kernel f(a) { switch (a) { case 1: { a = 0; } } }",
                "a 'switch'");
}

TEST(Pipeline, EndToEndOnCgra) {
  // pipeline -> CDFG -> schedule -> simulate for a kernel that uses every
  // new construct, compared against the interpreter on the ORIGINAL.
  const Function fn = parseKernelFile(std::string(CGRA_KERNEL_DIR) +
                                      "/vm_accumulate.kir");
  HostMemory goldenHeap;
  const Handle ops = goldenHeap.alloc({0, 5, 2, 3, 4, 0, 1, 7, 5, 0, 0, 9});
  const Handle out = goldenHeap.alloc(std::vector<std::int32_t>(7, 0));
  const std::vector<std::int32_t> initial = {ops, 6, out};
  Interpreter interp;
  HostMemory refHeap = goldenHeap;
  interp.run(fn, initial, refHeap);

  const Function norm = runFrontendPipeline(fn).fn;
  const LoweringResult lowered = lowerToCdfg(norm);
  FactoryOptions fo;
  fo.contextMemoryLength = 2048;
  fo.cboxSlots = 64;
  const Composition comp = makeMesh(9, fo);
  const ScheduleReport report =
      Scheduler(comp).schedule(ScheduleRequest(lowered.graph)).orThrow();
  std::map<VarId, std::int32_t> liveIns;
  for (const LiveBinding& lb : report.schedule.liveIns)
    liveIns[lb.var] = initial[lb.var];
  HostMemory simHeap = goldenHeap;
  Simulator(comp, report.schedule).run(liveIns, simHeap);
  EXPECT_TRUE(simHeap == refHeap);
}

}  // namespace
}  // namespace cgra::kir
