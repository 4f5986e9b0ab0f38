// End-to-end pipeline tests: KIR kernel → golden interpreter result vs
//  (a) baseline bytecode on the token machine,
//  (b) CDFG → scheduler → schedule-level simulation,
//  (c) CDFG → scheduler → register allocation → context images → decoded
//      context-level simulation,
// each compared bit-exactly (locals and heap); and every KIR operator
// spelling evaluated the same by all of them.
#include <gtest/gtest.h>

#include <cstdint>

#include "apps/kernels.hpp"
#include "arch/factory.hpp"
#include "ctx/contexts.hpp"
#include "host/token_machine.hpp"
#include "kir/interp.hpp"
#include "kir/lower_bytecode.hpp"
#include "kir/lower_cdfg.hpp"
#include "kir/parser.hpp"
#include "sched/scheduler.hpp"
#include "sched/validate.hpp"
#include "sim/simulator.hpp"

namespace cgra {
namespace {

struct Golden {
  std::vector<std::int32_t> locals;
  HostMemory heap;
};

Golden runGolden(const apps::Workload& w) {
  Golden g;
  g.heap = w.heap;
  kir::Interpreter interp;
  g.locals = interp.run(w.fn, w.initialLocals, g.heap).locals;
  return g;
}

/// Runs the CGRA pipeline on `comp` and compares against the golden run.
void expectCgraMatch(const apps::Workload& w, const Composition& comp,
                     bool viaContexts) {
  const Golden golden = runGolden(w);

  const kir::LoweringResult lowered = kir::lowerToCdfg(w.fn);
  const Scheduler scheduler(comp);
  const ScheduleReport result = scheduler.schedule(ScheduleRequest(lowered.graph)).orThrow();
  EXPECT_EQ(verifySchedule(result.schedule, &comp, &lowered.graph),
            std::vector<std::string>{});

  Schedule runnable = result.schedule;
  if (viaContexts) {
    const ContextImages images = generateContexts(result.schedule, comp);
    runnable = decodeContexts(images, comp);
  }

  std::map<VarId, std::int32_t> liveIns;
  for (const LiveBinding& lb : runnable.liveIns)
    liveIns[lb.var] = w.initialLocals[lb.var];

  HostMemory heap = w.heap;
  const Simulator sim(comp, runnable);
  const SimResult simResult = sim.run(liveIns, heap);

  // Heap must match bit-exactly.
  EXPECT_TRUE(heap == golden.heap) << w.name << ": heap mismatch";

  // Live-out variables must match the golden locals.
  for (const auto& [var, value] : simResult.liveOuts)
    EXPECT_EQ(value, golden.locals[var])
        << w.name << ": live-out mismatch for "
        << lowered.graph.variable(var).name;

  EXPECT_GT(simResult.runCycles, 0u);
}

class WorkloadPipeline : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WorkloadPipeline, BaselineMatchesInterpreter) {
  const auto workloads = apps::allWorkloads();
  const apps::Workload& w = workloads[GetParam()];
  const Golden golden = runGolden(w);

  const BytecodeFunction bc = kir::lowerToBytecode(w.fn);
  HostMemory heap = w.heap;
  const TokenMachine machine;
  const TokenRunResult result = machine.run(bc, w.initialLocals, heap);

  EXPECT_TRUE(heap == golden.heap) << w.name << ": heap mismatch";
  ASSERT_EQ(result.locals.size(), golden.locals.size());
  for (std::size_t i = 0; i < result.locals.size(); ++i)
    EXPECT_EQ(result.locals[i], golden.locals[i])
        << w.name << ": local " << w.fn.local(static_cast<kir::LocalId>(i)).name;
  EXPECT_GT(result.cycles, 0u);
}

TEST_P(WorkloadPipeline, CgraScheduleLevelMatchesInterpreter) {
  const auto workloads = apps::allWorkloads();
  expectCgraMatch(workloads[GetParam()], makeMesh(4), /*viaContexts=*/false);
}

TEST_P(WorkloadPipeline, CgraContextLevelMatchesInterpreter) {
  const auto workloads = apps::allWorkloads();
  expectCgraMatch(workloads[GetParam()], makeMesh(9), /*viaContexts=*/true);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadPipeline,
                         ::testing::Range<std::size_t>(0, 12),
                         [](const auto& info) {
                           return apps::allWorkloads()[info.param].name;
                         });

/// Every binary and comparison spelling with the Op it must mean, written
/// out here so that a wrong row in kir::kBinaryOperators fails.
struct Spelling {
  const char* text;
  Op op;
};
constexpr Spelling kSpellings[] = {
    {"|", Op::IOR},    {"^", Op::IXOR},   {"&", Op::IAND},   {"==", Op::IFEQ},
    {"!=", Op::IFNE},  {"<", Op::IFLT},   {"<=", Op::IFLE},  {">", Op::IFGT},
    {">=", Op::IFGE},  {"<<", Op::ISHL},  {">>", Op::ISHR},  {">>>", Op::IUSHR},
    {"+", Op::IADD},   {"-", Op::ISUB},   {"*", Op::IMUL},
};

TEST(Operators, EveryExecutorAgrees) {
  // evalArith/evalCompare, the interpreter, the bytecode on the token
  // machine and the CGRA simulator, over edge-case operands and shift
  // counts at and past the word width. Each operator is scheduled once.
  const std::vector<std::int32_t> operands = {0,  1,         -1,       7,
                                              -8, INT32_MIN, INT32_MAX};
  const std::vector<std::int32_t> shiftCounts = {0, 31, 32, 33};
  const Composition comp = makeMesh(4);
  for (const auto& [text, op] : kSpellings) {
    const std::string src =
        std::string("kernel f(a, b) { var r = a ") + text + " b; }";
    const kir::Function fn = kir::parseKernel(src);
    EXPECT_NE(fn.toString().find(std::string("(a ") + text + " b)"),
              std::string::npos)
        << src;
    const VarId r = fn.localByName("r");
    const BytecodeFunction bc = kir::lowerToBytecode(fn);
    const kir::LoweringResult lowered = kir::lowerToCdfg(fn);
    const Schedule sched = Scheduler(comp)
                               .schedule(ScheduleRequest(lowered.graph))
                               .orThrow()
                               .schedule;
    const Simulator sim(comp, sched);
    const bool shift = op == Op::ISHL || op == Op::ISHR || op == Op::IUSHR;
    for (const std::int32_t a : operands) {
      for (const std::int32_t b : shift ? shiftCounts : operands) {
        const std::int32_t expected =
            producesStatus(op) ? evalCompare(op, a, b) : evalArith(op, a, b);
        const std::string what =
            src + " with a=" + std::to_string(a) + ", b=" + std::to_string(b);
        HostMemory heap;
        EXPECT_EQ(kir::Interpreter().run(fn, {a, b}, heap).locals[r], expected)
            << "interpreter: " << what;
        EXPECT_EQ(TokenMachine().run(bc, {a, b}, heap).locals[r], expected)
            << "token machine: " << what;
        std::map<VarId, std::int32_t> liveIns;
        for (const LiveBinding& lb : sched.liveIns)  // variables are locals
          liveIns[lb.var] = lb.var == 0 ? a : b;
        EXPECT_EQ(sim.run(liveIns, heap).liveOuts.at(r), expected)
            << "CGRA: " << what;
      }
    }
  }
}

}  // namespace
}  // namespace cgra
