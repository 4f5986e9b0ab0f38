// Unit tests for the KIR frontend: builder + validation, the reference
// interpreter, liveness, the optimization passes (inlining, partial loop
// unrolling, CSE) and lowering to baseline bytecode — each pass checked for
// semantic equivalence on concrete and randomized inputs.
#include <gtest/gtest.h>

#include "apps/kernels.hpp"
#include "host/token_machine.hpp"
#include "kir/interp.hpp"
#include "kir/lower_bytecode.hpp"
#include "kir/parser.hpp"
#include "kir/passes/cse_pass.hpp"
#include "kir/passes/inline_pass.hpp"
#include "kir/passes/pass_utils.hpp"
#include "kir/passes/unroll_pass.hpp"
#include "support/rng.hpp"

namespace cgra::kir {
namespace {

/// x = a+b; y = (a+b)*(a+b); if (y > t) { y = y - (a+b); }
Function makeCseProbe() {
  FunctionBuilder b("cse_probe");
  const LocalId a = b.param("a");
  const LocalId bb = b.param("b");
  const LocalId t = b.param("t");
  const LocalId x = b.localVar("x");
  const LocalId y = b.localVar("y");
  const StmtId body = b.block({
      b.assign(x, b.add(b.use(a), b.use(bb))),
      b.assign(y, b.mul(b.add(b.use(a), b.use(bb)),
                        b.add(b.use(a), b.use(bb)))),
      b.ifElse(b.gt(b.use(y), b.use(t)),
               b.assign(y, b.sub(b.use(y), b.add(b.use(a), b.use(bb))))),
  });
  return b.finish(body);
}

TEST(Builder, ValidatesAndPrints) {
  const Function fn = makeCseProbe();
  const std::string s = fn.toString();
  EXPECT_NE(s.find("kernel cse_probe(a, b, t)"), std::string::npos);
  EXPECT_NE(s.find("x = (a + b);"), std::string::npos);
  EXPECT_NE(s.find("if (y > t)"), std::string::npos);
}

TEST(Builder, LocalByName) {
  const Function fn = makeCseProbe();
  EXPECT_EQ(fn.localByName("y"), 4u);
  EXPECT_THROW(fn.localByName("nope"), Error);
}

TEST(Interp, EvaluatesExpressions) {
  const Function fn = makeCseProbe();
  HostMemory heap;
  Interpreter interp;
  const auto r = interp.run(fn, {3, 4, 10}, heap);
  EXPECT_EQ(r.locals[fn.localByName("x")], 7);
  EXPECT_EQ(r.locals[fn.localByName("y")], 49 - 7);
}

TEST(Interp, CompareProducesZeroOne) {
  FunctionBuilder b("cmp");
  const LocalId a = b.param("a");
  const LocalId r = b.localVar("r");
  const Function fn = b.finish(b.block({
      b.assign(r, b.band(b.lt(b.use(a), b.cint(5)), b.ne(b.use(a), b.cint(3)))),
  }));
  HostMemory heap;
  Interpreter interp;
  EXPECT_EQ(interp.run(fn, {2}, heap).locals[r], 1);
  EXPECT_EQ(interp.run(fn, {3}, heap).locals[r], 0);
  EXPECT_EQ(interp.run(fn, {9}, heap).locals[r], 0);
}

TEST(Interp, BudgetGuardsInfiniteLoops) {
  FunctionBuilder b("inf");
  const LocalId x = b.param("x");
  const Function fn = b.finish(
      b.block({b.whileLoop(b.ge(b.use(x), b.cint(0)),
                           b.assign(x, b.use(x)))}));
  HostMemory heap;
  Interpreter interp;
  EXPECT_THROW(interp.run(fn, {1}, heap, 1000), Error);
}

TEST(Liveness, ParametersAndWrittenLocals) {
  const apps::Workload w = apps::makeAdpcm(8, 1);
  const auto liveIns = w.fn.liveInLocals();
  const auto liveOuts = w.fn.liveOutLocals();
  // Every parameter is live-in.
  for (LocalId l = 0; l < w.fn.numLocals(); ++l)
    if (w.fn.local(l).isParameter) {
      EXPECT_NE(std::find(liveIns.begin(), liveIns.end(), l), liveIns.end());
    }
  // Pure working locals initialized before use are not live-in.
  const LocalId i = w.fn.localByName("i");
  EXPECT_EQ(std::find(liveIns.begin(), liveIns.end(), i), liveIns.end());
  // valpred/index are written (live-out).
  EXPECT_NE(std::find(liveOuts.begin(), liveOuts.end(),
                      w.fn.localByName("valpred")),
            liveOuts.end());
}

TEST(Liveness, BareVarDeclaresWithoutAssigning) {
  // `var x;` emits no statement: x keeps its host value, so reading it
  // before any write makes it live-in.
  const Function fn = parseKernel("kernel k(a) { var x; a = x; }");
  EXPECT_EQ(fn.stmt(fn.body()).stmts.size(), 1u);
  const auto liveIns = fn.liveInLocals();
  EXPECT_NE(std::find(liveIns.begin(), liveIns.end(), fn.localByName("x")),
            liveIns.end());
}

TEST(Apps, WorkloadByNameMatchesSuite) {
  for (const std::uint64_t seed : {1u, 42u})
    for (const apps::Workload& w : apps::allWorkloads(seed)) {
      const apps::Workload one = apps::workload(w.name, seed);
      EXPECT_EQ(one.name, w.name);
      EXPECT_EQ(one.fn.toString(), w.fn.toString()) << w.name;
      EXPECT_EQ(one.initialLocals, w.initialLocals) << w.name;
      EXPECT_TRUE(one.heap == w.heap) << w.name;
    }
  EXPECT_THROW(apps::workload("no_such_kernel"), Error);
}

// ---------------------------------------------------------------------------
// Passes

TEST(Inline, ReplacesCallsAndPreservesSemantics) {
  Program prog;
  // callee: result = p*p + 1
  FunctionBuilder cb("square_plus");
  const LocalId p = cb.param("p");
  const LocalId res = cb.localVar("result");
  const FuncId callee = prog.addFunction(cb.finish(
      cb.block({cb.assign(res, cb.add(cb.mul(cb.use(p), cb.use(p)),
                                      cb.cint(1)))})));

  FunctionBuilder mb("main");
  const LocalId a = mb.param("a");
  const LocalId out = mb.localVar("out");
  const Function caller = mb.finish(mb.block({
      mb.call(out, callee, {mb.add(mb.use(a), mb.cint(2))}),
      mb.assign(out, mb.add(mb.use(out), mb.use(a))),
  }));

  const Function flat = inlineCalls(prog, caller);
  // No Call statements remain.
  EXPECT_NO_THROW(lowerToBytecode(flat));

  HostMemory heap;
  Interpreter interp(&prog);
  const auto before = interp.run(caller, {5}, heap);
  HostMemory heap2;
  Interpreter flatInterp;
  const auto after = flatInterp.run(flat, {5}, heap2);
  EXPECT_EQ(after.locals[out], before.locals[out]);
  EXPECT_EQ(after.locals[out], (5 + 2) * (5 + 2) + 1 + 5);
}

TEST(Inline, RejectsRecursion) {
  Program prog;
  FunctionBuilder fb("rec");
  const LocalId p = fb.param("p");
  const LocalId res = fb.localVar("result");
  Function f = fb.fn();
  // rec calls itself.
  const FuncId self = prog.addFunction(Function("rec"));
  FunctionBuilder fb2("rec");
  const LocalId p2 = fb2.param("p");
  const LocalId res2 = fb2.localVar("result");
  const StmtId body = fb2.call(res2, self, {fb2.use(p2)});
  prog.function(self) = fb2.finish(body);
  EXPECT_THROW(inlineCalls(prog, prog.function(self)), Error);
  (void)p;
  (void)res;
  (void)f;
}

TEST(Unroll, PreservesSemanticsOnAdpcm) {
  const apps::Workload w = apps::makeAdpcm(32, 3);
  Interpreter interp;
  HostMemory heapA = w.heap;
  const auto golden = interp.run(w.fn, w.initialLocals, heapA);
  for (unsigned factor : {2u, 3u, 4u}) {
    const Function unrolled = unrollLoops(w.fn, factor, true);
    HostMemory heapB = w.heap;
    const auto r = interp.run(unrolled, w.initialLocals, heapB);
    EXPECT_TRUE(heapA == heapB) << "factor " << factor;
    EXPECT_EQ(r.locals, golden.locals) << "factor " << factor;
  }
}

TEST(Unroll, InnermostOnlyLeavesOuterLoop) {
  const apps::Workload w = apps::makeFir(8, 3, 1);
  const Function unrolled = unrollLoops(w.fn, 2, true);
  // The inner loop body is duplicated: statement count grows, but only from
  // the innermost loop.
  EXPECT_GT(countStmtNodes(unrolled), countStmtNodes(w.fn));
  const Function unrolledAll = unrollLoops(w.fn, 2, false);
  EXPECT_GT(countStmtNodes(unrolledAll), countStmtNodes(unrolled));
}

TEST(Unroll, FactorOneIsIdentity) {
  const apps::Workload w = apps::makeGcd(12, 18);
  const Function same = unrollLoops(w.fn, 1, true);
  EXPECT_EQ(countStmtNodes(same), countStmtNodes(w.fn));
}

TEST(Cse, HoistsRepeatedSubexpressions) {
  const Function fn = makeCseProbe();
  const Function opt = eliminateCommonSubexpressions(fn);
  EXPECT_LT(countExprNodes(opt), countExprNodes(fn));
  // Semantics preserved across inputs.
  Interpreter interp;
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<std::int32_t> in = {
        rng.nextI32() % 100, rng.nextI32() % 100, rng.nextI32() % 1000};
    HostMemory h1, h2;
    const auto before = interp.run(fn, in, h1).locals;
    const auto after = interp.run(opt, in, h2).locals;
    for (LocalId l = 0; l < fn.numLocals(); ++l)
      EXPECT_EQ(before[l], after[l]) << "local " << l;
  }
}

TEST(Cse, DoesNotMergeAcrossWrites) {
  FunctionBuilder b("wb");
  const LocalId a = b.param("a");
  const LocalId x = b.localVar("x");
  const LocalId y = b.localVar("y");
  // x = a+a; a = a+1 is impossible (a is param but writable): use x.
  const Function fn = b.finish(b.block({
      b.assign(x, b.add(b.use(a), b.cint(1))),
      b.assign(a, b.add(b.use(a), b.cint(5))),
      b.assign(y, b.add(b.use(a), b.cint(1))),  // NOT the same value as x
  }));
  const Function opt = eliminateCommonSubexpressions(fn);
  Interpreter interp;
  HostMemory h1, h2;
  const auto before = interp.run(fn, {10}, h1);
  const auto after = interp.run(opt, {10}, h2);
  EXPECT_EQ(before.locals, after.locals);
  EXPECT_EQ(after.locals[y], 16);
}

TEST(Cse, PreservesSemanticsOnAllWorkloads) {
  for (const apps::Workload& w : apps::allWorkloads()) {
    const Function opt = eliminateCommonSubexpressions(w.fn);
    Interpreter interp;
    HostMemory h1 = w.heap, h2 = w.heap;
    const auto before = interp.run(w.fn, w.initialLocals, h1);
    const auto after = interp.run(opt, w.initialLocals, h2);
    EXPECT_TRUE(h1 == h2) << w.name;
    // CSE adds temps; compare the original locals prefix.
    for (LocalId l = 0; l < w.fn.numLocals(); ++l)
      EXPECT_EQ(before.locals[l], after.locals[l]) << w.name << " local " << l;
  }
}

// ---------------------------------------------------------------------------
// Bytecode lowering

TEST(Bytecode, DisassembleShowsStructure) {
  const apps::Workload w = apps::makeGcd(6, 4);
  const BytecodeFunction bc = lowerToBytecode(w.fn);
  const std::string dis = disassemble(bc);
  EXPECT_NE(dis.find("if_icmp"), std::string::npos);
  EXPECT_NE(dis.find("goto"), std::string::npos);
  EXPECT_NE(dis.find("halt"), std::string::npos);
}

TEST(Bytecode, CompareInValuePositionMaterializes) {
  FunctionBuilder b("cmpval");
  const LocalId a = b.param("a");
  const LocalId r = b.localVar("r");
  const Function fn = b.finish(b.block({
      b.assign(r, b.add(b.le(b.use(a), b.cint(4)), b.cint(10))),
  }));
  const BytecodeFunction bc = lowerToBytecode(fn);
  HostMemory heap;
  const TokenMachine tm;
  EXPECT_EQ(tm.run(bc, {4}, heap).locals[r], 11);
  EXPECT_EQ(tm.run(bc, {5}, heap).locals[r], 10);
}

TEST(Bytecode, MatchesInterpreterOnAllWorkloads) {
  const TokenMachine tm;
  Interpreter interp;
  for (const apps::Workload& w : apps::allWorkloads()) {
    const BytecodeFunction bc = lowerToBytecode(w.fn);
    HostMemory h1 = w.heap, h2 = w.heap;
    const auto golden = interp.run(w.fn, w.initialLocals, h1);
    const auto result = tm.run(bc, w.initialLocals, h2);
    EXPECT_TRUE(h1 == h2) << w.name;
    EXPECT_EQ(result.locals, golden.locals) << w.name;
  }
}

// ---------------------------------------------------------------------------
// Irregular control flow (break / continue / return / && / || / switch)

// Builds: sum = 0; i = 0; while (i < n) { i = i + 1; if (i == stop) break;
//         if (i & 1) continue; sum = sum + i; }
Function makeExitProbe() {
  FunctionBuilder b("exits");
  const LocalId n = b.param("n");
  const LocalId stop = b.param("stop");
  const LocalId sum = b.localVar("sum");
  const LocalId i = b.localVar("i");
  return b.finish(b.block({
      b.assign(sum, b.cint(0)),
      b.assign(i, b.cint(0)),
      b.whileLoop(
          b.lt(b.use(i), b.use(n)),
          b.block({
              b.assign(i, b.add(b.use(i), b.cint(1))),
              b.ifElse(b.eq(b.use(i), b.use(stop)), b.block({b.breakLoop()})),
              b.ifElse(b.ne(b.band(b.use(i), b.cint(1)), b.cint(0)),
                       b.block({b.continueLoop()})),
              b.assign(sum, b.add(b.use(sum), b.use(i))),
          })),
  }));
}

TEST(Builder, IrregularConstructsValidateAndPrint) {
  const Function fn = makeExitProbe();
  const std::string s = fn.toString();
  EXPECT_NE(s.find("break;"), std::string::npos);
  EXPECT_NE(s.find("continue;"), std::string::npos);

  FunctionBuilder b("sw");
  const LocalId a = b.param("a");
  const LocalId r = b.localVar("r");
  const Function sw = b.finish(b.block({
      b.assign(r, b.lor(b.land(b.use(a), b.cint(1)), b.cint(0))),
      b.switchStmt(b.use(a), {2, 4}, {b.assign(r, b.cint(20)),
                                      b.assign(r, b.cint(40))},
                   b.assign(r, b.cint(-1))),
      b.ret(b.use(r)),
  }));
  const std::string t = sw.toString();
  EXPECT_NE(t.find("case 2: {"), std::string::npos);
  EXPECT_NE(t.find("default: {"), std::string::npos);
  EXPECT_NE(t.find("return r;"), std::string::npos);
  EXPECT_NE(t.find("&&"), std::string::npos);
  EXPECT_NE(t.find("||"), std::string::npos);
}

TEST(Builder, RejectsExitsOutsideLoops) {
  {
    FunctionBuilder b("badbreak");
    b.param("a");
    EXPECT_THROW(b.finish(b.block({b.breakLoop()})), Error);
  }
  {
    FunctionBuilder b("badcontinue");
    b.param("a");
    EXPECT_THROW(b.finish(b.block({b.continueLoop()})), Error);
  }
  {
    // break inside a switch arm still needs an enclosing loop: switch is
    // not a break target in this language.
    FunctionBuilder b("swbreak");
    const LocalId a = b.param("a");
    EXPECT_THROW(
        b.finish(b.block({b.switchStmt(b.use(a), {1}, {b.breakLoop()})})),
        Error);
  }
  {
    FunctionBuilder b("dupcase");
    const LocalId a = b.param("a");
    EXPECT_THROW(b.finish(b.block({b.switchStmt(
                     b.use(a), {3, 3},
                     {b.assign(a, b.cint(1)), b.assign(a, b.cint(2))})})),
                 Error);
  }
}

TEST(Interp, BreakAndContinue) {
  const Function fn = makeExitProbe();
  Interpreter interp;
  HostMemory heap;
  const LocalId sum = fn.localByName("sum");
  // stop=4: i=1 skip, i=2 add, i=3 skip, i=4 break → sum=2.
  EXPECT_EQ(interp.run(fn, {10, 4}, heap).locals[sum], 2);
  // stop beyond range: evens 2+4+6+8+10.
  EXPECT_EQ(interp.run(fn, {10, 99}, heap).locals[sum], 30);
  // Break only exits the innermost loop: run the probe body under an outer
  // counter loop and check the outer loop still completes.
  FunctionBuilder b("nested");
  const LocalId lim = b.param("lim");
  const LocalId outer = b.localVar("outer");
  const LocalId k = b.localVar("k");
  const Function nested = b.finish(b.block({
      b.assign(outer, b.cint(0)),
      b.whileLoop(
          b.lt(b.use(outer), b.use(lim)),
          b.block({
              b.assign(outer, b.add(b.use(outer), b.cint(1))),
              b.assign(k, b.cint(0)),
              b.whileLoop(b.lt(b.use(k), b.cint(100)),
                          b.block({
                              b.ifElse(b.ge(b.use(k), b.cint(3)),
                                       b.block({b.breakLoop()})),
                              b.assign(k, b.add(b.use(k), b.cint(1))),
                          })),
          })),
  }));
  const auto r = interp.run(nested, {5}, heap);
  EXPECT_EQ(r.locals[outer], 5);
  EXPECT_EQ(r.locals[k], 3);
}

TEST(Interp, ReturnUnwindsNestedLoops) {
  FunctionBuilder b("ret");
  const LocalId n = b.param("n");
  const LocalId i = b.localVar("i");
  const LocalId j = b.localVar("j");
  const Function fn = b.finish(b.block({
      b.assign(i, b.cint(0)),
      b.whileLoop(
          b.lt(b.use(i), b.use(n)),
          b.block({
              b.assign(j, b.cint(0)),
              b.whileLoop(b.lt(b.use(j), b.use(n)),
                          b.block({
                              b.ifElse(b.eq(b.add(b.use(i), b.use(j)),
                                            b.cint(5)),
                                       b.block({b.ret(b.mul(b.use(i),
                                                            b.cint(10)))})),
                              b.assign(j, b.add(b.use(j), b.cint(1))),
                          })),
              b.assign(i, b.add(b.use(i), b.cint(1))),
          })),
      b.ret(b.cint(-1)),
  }));
  Interpreter interp;
  HostMemory heap;
  const LocalId result = fn.localByName("result");
  // i=0: j reaches 5 first → return 0.
  EXPECT_EQ(interp.run(fn, {10}, heap).locals[result], 0);
  // n=3: i+j never hits 5 (max 2+2) → fall through to return -1.
  EXPECT_EQ(interp.run(fn, {3}, heap).locals[result], -1);
}

TEST(Interp, ShortCircuitSkipsSideEffectOperand) {
  // r = (n != 0) && (load a[n-1] > 2): heap load throws when executed with
  // n == 0, so laziness is observable.
  FunctionBuilder b("sc");
  const LocalId a = b.param("a");
  const LocalId n = b.param("n");
  const LocalId r = b.localVar("r");
  const Function fn = b.finish(b.block({
      b.assign(r, b.land(b.ne(b.use(n), b.cint(0)),
                         b.gt(b.load(b.use(a),
                                     b.sub(b.use(n), b.cint(1))),
                              b.cint(2)))),
  }));
  Interpreter interp;
  HostMemory heap;
  const Handle h = heap.alloc(std::vector<std::int32_t>{7});
  EXPECT_EQ(interp.run(fn, {h, 1}, heap).locals[r], 1);
  EXPECT_EQ(interp.run(fn, {h, 0}, heap).locals[r], 0);
}

TEST(Interp, SwitchMatchesArmOrDefault) {
  FunctionBuilder b("sw");
  const LocalId op = b.param("op");
  const LocalId r = b.localVar("r");
  const Function fn = b.finish(b.block({
      b.assign(r, b.cint(0)),
      b.switchStmt(b.use(op), {1, 5, -3},
                   {b.assign(r, b.cint(100)), b.assign(r, b.cint(500)),
                    b.assign(r, b.cint(-300))},
                   b.assign(r, b.cint(7))),
  }));
  Interpreter interp;
  HostMemory heap;
  EXPECT_EQ(interp.run(fn, {1}, heap).locals[r], 100);
  EXPECT_EQ(interp.run(fn, {5}, heap).locals[r], 500);
  EXPECT_EQ(interp.run(fn, {-3}, heap).locals[r], -300);
  EXPECT_EQ(interp.run(fn, {2}, heap).locals[r], 7);
}

TEST(Bytecode, MatchesInterpreterOnIrregularConstructs) {
  // The bytecode backend lowers the UNnormalized constructs directly with
  // jumps; it must agree with the tree-walking interpreter.
  const std::string src = R"(
    kernel vm(ops, n) {
      var acc = 0;
      var pc = 0;
      while (pc < n) {
        var op = ops[pc];
        pc = pc + 1;
        if (op == 9 || acc > 500) { break; }
        if (op == 8 && acc != 0) { continue; }
        switch (op) {
          case 0: { acc = acc + 10; }
          case 1: { acc = acc - 3; }
          case 2: { if (acc > 5) { return acc; } }
          default: { acc = acc + 1; }
        }
      }
      return acc;
    }
  )";
  const Function fn = parseKernel(src);
  const TokenMachine tm;
  Interpreter interp;
  const std::vector<std::vector<std::int32_t>> programs = {
      {0, 0, 2, 1},  // returns from inside the switch
      {0, 8, 8, 1, 9, 0},
      {3, 3, 3, 3},
      {9},
      {},
  };
  for (const auto& prog : programs) {
    HostMemory h1, h2;
    const Handle a1 = h1.alloc(prog.empty() ? std::vector<std::int32_t>{0}
                                            : prog);
    const Handle a2 = h2.alloc(prog.empty() ? std::vector<std::int32_t>{0}
                                            : prog);
    const std::vector<std::int32_t> in1 = {
        a1, static_cast<std::int32_t>(prog.size())};
    const std::vector<std::int32_t> in2 = {
        a2, static_cast<std::int32_t>(prog.size())};
    const auto golden = interp.run(fn, in1, h1);
    const auto result = tm.run(lowerToBytecode(fn), in2, h2);
    EXPECT_TRUE(h1 == h2);
    // The bytecode backend appends a scratch local for switch dispatch;
    // compare the function's own locals.
    for (LocalId l = 0; l < fn.numLocals(); ++l)
      EXPECT_EQ(result.locals[l], golden.locals[l]) << "local " << l;
  }
}

TEST(Bytecode, CostModelScalesWithWork) {
  const TokenMachine tm;
  const apps::Workload small = apps::makeDotProduct(4, 1);
  const apps::Workload large = apps::makeDotProduct(64, 1);
  HostMemory h1 = small.heap, h2 = large.heap;
  const auto rs = tm.run(lowerToBytecode(small.fn), small.initialLocals, h1);
  const auto rl = tm.run(lowerToBytecode(large.fn), large.initialLocals, h2);
  EXPECT_GT(rl.cycles, rs.cycles * 10);
  EXPECT_GT(rl.bytecodes, rs.bytecodes * 10);
}

}  // namespace
}  // namespace cgra::kir
