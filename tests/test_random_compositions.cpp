// Property tests of the paper's headline claim: the scheduler handles
// *arbitrary* PE interconnects and *inhomogeneous* operation sets "without
// any manual intervention" (§I, §II). Random strongly-connected
// compositions with randomly thinned operator sets are generated and every
// bundled + random kernel must either map correctly (bit-exact vs the
// interpreter) or be rejected with a clean error — never mis-execute.
#include <gtest/gtest.h>

#include "apps/kernels.hpp"
#include "arch/composition.hpp"
#include "ctx/contexts.hpp"
#include "kir/interp.hpp"
#include "kir/lower_cdfg.hpp"
#include "kir/random_kernel.hpp"
#include "sched/scheduler.hpp"
#include "sched/validate.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace cgra {
namespace {

/// Random composition: 3–10 PEs, random links grown until strongly
/// connected, 1–2 DMA PEs, each non-essential operation removed from each
/// PE with probability 1/3 (but kept somewhere in the array).
Composition randomComposition(std::uint64_t seed) {
  Rng rng(seed);
  const unsigned n = static_cast<unsigned>(rng.range(3, 10));

  Interconnect ic(n);
  // A random ring guarantees strong connectivity, then random extra links.
  std::vector<PEId> order(n);
  for (PEId i = 0; i < n; ++i) order[i] = i;
  for (PEId i = n; i-- > 1;)
    std::swap(order[i], order[static_cast<std::size_t>(rng.range(0, i))]);
  for (PEId i = 0; i < n; ++i) ic.addLink(order[i], order[(i + 1) % n]);
  const unsigned extra = static_cast<unsigned>(rng.range(0, 2 * n));
  for (unsigned e = 0; e < extra; ++e) {
    const PEId a = static_cast<PEId>(rng.range(0, n - 1));
    const PEId b = static_cast<PEId>(rng.range(0, n - 1));
    if (a != b) ic.addLink(a, b);
  }
  ic.computeShortestPaths();

  const unsigned dmaCount = static_cast<unsigned>(rng.range(1, 2));
  std::vector<PEDescriptor> pes;
  for (PEId p = 0; p < n; ++p) {
    const bool dma = p < dmaCount;
    PEDescriptor pe = PEDescriptor::fullInteger(
        "rnd" + std::to_string(p), /*regfileSize=*/64, dma);
    for (unsigned opIdx = 0; opIdx < kNumOps; ++opIdx) {
      const Op op = static_cast<Op>(opIdx);
      if (op == Op::NOP || op == Op::MOVE || op == Op::CONST ||
          isMemoryOp(op))
        continue;
      // Keep every operation on PE 0 so all kernels stay mappable; thin the
      // rest randomly (inhomogeneity).
      if (p != 0 && rng.chance(1, 3)) pe.removeOp(op);
    }
    pes.push_back(std::move(pe));
  }
  return Composition("random" + std::to_string(seed), std::move(pes),
                     std::move(ic), /*contextMemoryLength=*/2048,
                     /*cboxSlots=*/64);
}

void expectCorrectOrCleanError(const apps::Workload& w,
                               const Composition& comp) {
  HostMemory goldenHeap = w.heap;
  kir::Interpreter interp;
  const auto golden = interp.run(w.fn, w.initialLocals, goldenHeap);

  const kir::LoweringResult lowered = kir::lowerToCdfg(w.fn);
  const ScheduleReport result =
      Scheduler(comp).schedule(ScheduleRequest(lowered.graph));
  if (!result.ok) {
    // Clean typed rejection (e.g. capacity) is acceptable; a programmer
    // error would have escaped as an exception and failed the test.
    EXPECT_NE(result.failure.reason, FailureReason::None);
    EXPECT_NE(result.failure.reason, FailureReason::Internal);
    return;
  }
  const auto issues = verifySchedule(result.schedule, &comp, &lowered.graph);
  ASSERT_TRUE(issues.empty())
      << w.name << " on " << comp.name() << ": " << issues.front();

  const Schedule runnable =
      decodeContexts(generateContexts(result.schedule, comp), comp);
  std::map<VarId, std::int32_t> liveIns;
  for (const LiveBinding& lb : runnable.liveIns)
    liveIns[lb.var] = w.initialLocals[lb.var];
  HostMemory heap = w.heap;
  const SimResult r = Simulator(comp, runnable).run(liveIns, heap);
  EXPECT_TRUE(heap == goldenHeap) << w.name << " on " << comp.name();
  for (const auto& [var, value] : r.liveOuts)
    EXPECT_EQ(value, golden.locals[var]) << w.name << " on " << comp.name();
}

class RandomCompositions : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCompositions, BundledKernelsMapWithoutIntervention) {
  const Composition comp = randomComposition(GetParam());
  // Rotate through the bundled kernels so each seed covers a different one.
  auto workloads = apps::allWorkloads();
  const apps::Workload& w = workloads[GetParam() % workloads.size()];
  expectCorrectOrCleanError(w, comp);
}

TEST_P(RandomCompositions, RandomKernelsMapWithoutIntervention) {
  const Composition comp = randomComposition(GetParam() * 31 + 7);
  const kir::RandomKernel k = kir::generateRandomKernel(GetParam() * 13 + 5);
  apps::Workload w;
  w.name = "random_kernel";
  w.fn = k.fn;
  w.initialLocals = k.initialLocals;
  w.heap = k.heap;
  expectCorrectOrCleanError(w, comp);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCompositions,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(RandomCompositions, GeneratedCompositionsAreValid) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const Composition comp = randomComposition(seed);
    EXPECT_NO_THROW(comp.validate()) << seed;
    EXPECT_TRUE(comp.interconnect().stronglyConnected()) << seed;
    EXPECT_FALSE(comp.pesSupporting(Op::IMUL).empty()) << seed;
  }
}

}  // namespace
}  // namespace cgra
