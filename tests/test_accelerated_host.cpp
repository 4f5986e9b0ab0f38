// Tests for host/CGRA co-execution: bytecode patching (INVOKE_CGRA),
// branch-target fixup across assembled stages, live-in/out frame exchange,
// cycle accounting, equivalence with pure-host execution, and synthesis of
// irregular kernels through the frontend pipeline.
#include <gtest/gtest.h>

#include "apps/kernels.hpp"
#include "arch/factory.hpp"
#include "kir/interp.hpp"
#include "kir/parser.hpp"
#include "kir/passes/pipeline.hpp"
#include "sim/accelerated_host.hpp"

#ifndef CGRA_KERNEL_DIR
#error "CGRA_KERNEL_DIR must point at examples/kernels"
#endif

namespace cgra {
namespace {

/// A two-stage app over a shared frame: params {h, n, acc}; stage A doubles
/// every array element (the kernel), stage B sums the array on the host.
struct TwoStageApp {
  kir::Function kernel = kir::Function("k");
  kir::Function sumStage = kir::Function("s");
  std::vector<std::int32_t> locals;
  HostMemory heap;
};

TwoStageApp makeTwoStageApp() {
  TwoStageApp app;
  {
    kir::FunctionBuilder b("double_all");
    const auto h = b.param("h");
    const auto n = b.param("n");
    b.param("acc");
    const auto i = b.localVar("i");
    const auto body = b.block({
        b.arrayStore(b.use(h), b.use(i),
                     b.shl(b.load(b.use(h), b.use(i)), b.cint(1))),
        b.assign(i, b.add(b.use(i), b.cint(1))),
    });
    app.kernel = b.finish(b.block({
        b.assign(i, b.cint(0)),
        b.whileLoop(b.lt(b.use(i), b.use(n)), body),
    }));
  }
  {
    kir::FunctionBuilder b("sum_all");
    const auto h = b.param("h");
    const auto n = b.param("n");
    const auto acc = b.param("acc");
    b.localVar("$pad");  // skip the kernel's "i" slot
    const auto j = b.localVar("j");
    const auto body = b.block({
        b.assign(acc, b.add(b.use(acc), b.load(b.use(h), b.use(j)))),
        b.assign(j, b.add(b.use(j), b.cint(1))),
    });
    app.sumStage = b.finish(b.block({
        b.assign(acc, b.cint(0)),
        b.assign(j, b.cint(0)),
        b.whileLoop(b.lt(b.use(j), b.use(n)), body),
    }));
  }
  const Handle h = app.heap.alloc({1, 2, 3, 4, 5, 6});
  app.locals = {h, 6, 0};
  return app;
}

TEST(AcceleratedHost, PatchedAppMatchesHostOnly) {
  TwoStageApp app = makeTwoStageApp();
  AcceleratedHost system(makeMesh(4));
  const unsigned k = system.addKernel(app.kernel, 1);

  HostMemory heapAccel = app.heap;
  const AcceleratedRunResult accel = system.run(
      {CgraStage{k}, HostStage{&app.sumStage}}, app.locals, heapAccel);

  HostMemory heapPure = app.heap;
  const AcceleratedRunResult pure = system.run(
      {HostStage{&app.kernel}, HostStage{&app.sumStage}}, app.locals, heapPure);

  EXPECT_TRUE(heapAccel == heapPure);
  EXPECT_EQ(accel.locals[2], pure.locals[2]);
  EXPECT_EQ(accel.locals[2], 2 * (1 + 2 + 3 + 4 + 5 + 6));
  EXPECT_EQ(accel.cgraInvocations, 1u);
  EXPECT_EQ(pure.cgraInvocations, 0u);
  EXPECT_EQ(accel.totalCycles, accel.hostCycles + accel.cgraCycles);
  EXPECT_GT(accel.cgraCycles, 0u);
}

TEST(AcceleratedHost, AssembleFixesBranchTargets) {
  TwoStageApp app = makeTwoStageApp();
  AcceleratedHost system(makeMesh(4));
  const unsigned k = system.addKernel(app.kernel, 1);
  const BytecodeFunction patched = system.assemble(
      {HostStage{&app.sumStage}, CgraStage{k}, HostStage{&app.sumStage}});

  // Two host stages with internal loops: every branch target must stay
  // inside the assembled code and the INVOKE sits between them.
  unsigned invokeCount = 0;
  for (std::size_t pc = 0; pc < patched.code.size(); ++pc) {
    const BcInstr& in = patched.code[pc];
    if (in.op == Bc::INVOKE_CGRA) ++invokeCount;
    switch (in.op) {
      case Bc::GOTO:
      case Bc::IF_ICMPEQ:
      case Bc::IF_ICMPNE:
      case Bc::IF_ICMPLT:
      case Bc::IF_ICMPGE:
      case Bc::IF_ICMPGT:
      case Bc::IF_ICMPLE:
        EXPECT_GE(in.arg, 0);
        EXPECT_LT(static_cast<std::size_t>(in.arg), patched.code.size());
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(invokeCount, 1u);
  EXPECT_EQ(patched.code.back().op, Bc::HALT);
  const std::string dis = disassemble(patched);
  EXPECT_NE(dis.find("invoke_cgra 0"), std::string::npos);
}

TEST(AcceleratedHost, RepeatedInvocationsReuseTheSchedule) {
  TwoStageApp app = makeTwoStageApp();
  AcceleratedHost system(makeMesh(4));
  const unsigned k = system.addKernel(app.kernel, 1);
  HostMemory heap = app.heap;
  const AcceleratedRunResult r =
      system.run({CgraStage{k}, CgraStage{k}}, app.locals, heap);
  EXPECT_EQ(r.cgraInvocations, 2u);
  EXPECT_EQ(heap.array(0)[0], 4) << "doubled twice";
}

TEST(AcceleratedHost, MultipleKernelsShareContextMemory) {
  TwoStageApp app = makeTwoStageApp();
  AcceleratedHost system(makeMesh(4));
  const unsigned k1 = system.addKernel(app.kernel, 1);
  const unsigned k2 = system.addKernel(app.sumStage, 1);
  EXPECT_NE(k1, k2);
  EXPECT_GT(system.contextsUsed(), 0u);

  HostMemory heap = app.heap;
  const AcceleratedRunResult r =
      system.run({CgraStage{k1}, CgraStage{k2}}, app.locals, heap);
  EXPECT_EQ(r.locals[2], 2 * 21);
  EXPECT_EQ(r.cgraInvocations, 2u);
}

TEST(AcceleratedHost, UnknownKernelIdRejected) {
  AcceleratedHost system(makeMesh(4));
  TwoStageApp app = makeTwoStageApp();
  HostMemory heap = app.heap;
  EXPECT_THROW(system.run({CgraStage{7}}, app.locals, heap), Error);
}

TEST(AcceleratedHost, InvokeWithoutHookRejectedByMachine) {
  BytecodeFunction fn;
  fn.name = "t";
  fn.numLocals = 0;
  fn.code = {{Bc::INVOKE_CGRA, 0}, {Bc::HALT, 0}};
  HostMemory heap;
  const TokenMachine tm;
  EXPECT_THROW(tm.run(fn, {}, heap), Error);
}

TEST(AcceleratedHost, AdpcmEndToEndAgainstInterpreter) {
  const apps::Workload w = apps::makeAdpcm(48, 4);
  AcceleratedHost system(makeIrregular('D'));
  const unsigned k = system.addKernel(w.fn, 2);

  HostMemory heap = w.heap;
  const AcceleratedRunResult r = system.run({CgraStage{k}}, w.initialLocals, heap);

  HostMemory goldenHeap = w.heap;
  kir::Interpreter interp;
  interp.run(w.fn, w.initialLocals, goldenHeap);
  EXPECT_TRUE(heap == goldenHeap);
  EXPECT_GT(r.cgraCycles, 0u);
  EXPECT_EQ(r.hostBytecodes, 2u) << "invoke + halt";
}

TEST(AcceleratedHost, HostOnlyAppNeedsNoKernel) {
  TwoStageApp app = makeTwoStageApp();
  const AcceleratedHost hostOnly(makeMesh(4));
  HostMemory heap = app.heap;
  const AcceleratedRunResult r = hostOnly.run(
      {HostStage{&app.kernel}, HostStage{&app.sumStage}}, app.locals, heap);
  EXPECT_EQ(r.locals[2], 2 * 21);
  EXPECT_EQ(r.cgraInvocations, 0u);
  EXPECT_EQ(r.totalCycles, r.hostCycles);
  EXPECT_EQ(hostOnly.contextsUsed(), 0u);
}

TEST(AcceleratedHost, IrregularKernelMatchesHostOnly) {
  // A `break` inside the inner loop and a `return` from the middle of the
  // nest: the frontend pipeline turns both into guard variables.
  const kir::Function fn =
      kir::parseKernelFile(std::string(CGRA_KERNEL_DIR) + "/string_search.kir");
  HostMemory input;
  const Handle haystack = input.alloc({104, 101, 108, 108, 111});  // "hello"
  const Handle needle = input.alloc({108, 108});                    // "ll"
  std::vector<std::int32_t> locals(fn.numLocals(), 0);
  locals[0] = haystack;
  locals[1] = 5;
  locals[2] = needle;
  locals[3] = 2;
  const std::size_t result = fn.localByName("result");

  HostMemory goldenHeap = input;
  const kir::InterpResult golden =
      kir::Interpreter().run(fn, locals, goldenHeap);
  ASSERT_EQ(golden.locals[result], 2);

  for (const unsigned unroll : {1u, 2u}) {
    SCOPED_TRACE("unroll " + std::to_string(unroll));
    AcceleratedHost system(makeMesh(9));
    const unsigned k = system.addKernel(fn, unroll);

    HostMemory heapAccel = input;
    const AcceleratedRunResult accel =
        system.run({CgraStage{k}}, locals, heapAccel);
    HostMemory heapPure = input;
    const AcceleratedRunResult pure =
        system.run({HostStage{&fn}}, locals, heapPure);

    EXPECT_EQ(accel.cgraInvocations, 1u);
    EXPECT_EQ(accel.locals[result], pure.locals[result]);
    EXPECT_EQ(accel.locals[result], golden.locals[result]);
    EXPECT_TRUE(heapAccel == heapPure);
    EXPECT_TRUE(heapAccel == goldenHeap);
  }
}

TEST(AcceleratedHost, UnrollFactorAboveLimitRejected) {
  TwoStageApp app = makeTwoStageApp();
  AcceleratedHost system(makeMesh(4));
  EXPECT_THROW(system.addKernel(app.kernel, kir::kMaxUnrollFactor + 1), Error);
}

}  // namespace
}  // namespace cgra
