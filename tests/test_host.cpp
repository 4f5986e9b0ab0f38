// Unit tests for the host substrate: heap semantics, token-machine cost
// accounting and error handling, and the hardware-profiler analog
// (back-edge counts of a baseline run), and the golden bytecode of every
// bundled kernel.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>

#include "apps/kernels.hpp"
#include "host/profiler.hpp"
#include "host/token_machine.hpp"
#include "kir/lower_bytecode.hpp"
#include "kir/passes/pipeline.hpp"
#include "support/sha256.hpp"

namespace cgra {
namespace {

TEST(HostMemory, AllocLoadStore) {
  HostMemory mem;
  const Handle h = mem.alloc({1, 2, 3});
  EXPECT_EQ(mem.size(h), 3u);
  EXPECT_EQ(mem.load(h, 2), 3);
  mem.store(h, 0, 42);
  EXPECT_EQ(mem.load(h, 0), 42);
  EXPECT_EQ(mem.loadCount(), 2u);
  EXPECT_EQ(mem.storeCount(), 1u);
}

TEST(HostMemory, BoundsAndHandleChecks) {
  HostMemory mem;
  const Handle h = mem.alloc(2);
  EXPECT_THROW(mem.load(h, 2), Error);
  EXPECT_THROW(mem.load(h, -1), Error);
  EXPECT_THROW(mem.store(h, 5, 0), Error);
  EXPECT_THROW(mem.load(7, 0), Error);
  EXPECT_THROW(mem.load(-1, 0), Error);
}

TEST(HostMemory, EqualityComparesContents) {
  HostMemory a, b;
  a.alloc({1, 2});
  b.alloc({1, 2});
  EXPECT_TRUE(a == b);
  b.store(0, 1, 3);
  EXPECT_FALSE(a == b);
}

TEST(TokenMachine, ArithmeticProgram) {
  // r2 = (r0 + r1) * r0
  BytecodeFunction fn;
  fn.name = "t";
  fn.numLocals = 3;
  fn.code = {
      {Bc::ILOAD, 0}, {Bc::ILOAD, 1}, {Bc::IADD, 0},  {Bc::ILOAD, 0},
      {Bc::IMUL, 0},  {Bc::ISTORE, 2}, {Bc::HALT, 0},
  };
  HostMemory heap;
  const TokenMachine tm;
  const auto r = tm.run(fn, {3, 4}, heap);
  EXPECT_EQ(r.locals[2], 21);
  EXPECT_EQ(r.bytecodes, 7u);
  // Cost model: 3 local loads + 1 store (4×localOp) + add (aluOp) + mul.
  const TokenCostModel c;
  EXPECT_EQ(r.cycles, 4 * c.localOp + c.aluOp + c.mulOp);
}

TEST(TokenMachine, BranchAndArrayCosts) {
  BytecodeFunction fn;
  fn.name = "t";
  fn.numLocals = 1;
  fn.code = {
      {Bc::ICONST, 0}, {Bc::ICONST, 1}, {Bc::IF_ICMPLT, 4}, {Bc::HALT, 0},
      {Bc::ICONST, 0}, {Bc::ICONST, 5}, {Bc::IALOAD, 0},   {Bc::ISTORE, 0},
      {Bc::HALT, 0},
  };
  HostMemory heap;
  const Handle h = heap.alloc({9, 8, 7, 6, 5, 4});
  ASSERT_EQ(h, 0);
  const TokenMachine tm;
  const auto r = tm.run(fn, {}, heap);
  EXPECT_EQ(r.locals[0], 4);
}

TEST(TokenMachine, DetectsStackUnderflow) {
  BytecodeFunction fn;
  fn.name = "t";
  fn.numLocals = 0;
  fn.code = {{Bc::IADD, 0}, {Bc::HALT, 0}};
  HostMemory heap;
  const TokenMachine tm;
  EXPECT_THROW(tm.run(fn, {}, heap), Error);
}

TEST(TokenMachine, DetectsRunawayLoop) {
  BytecodeFunction fn;
  fn.name = "t";
  fn.numLocals = 0;
  fn.code = {{Bc::GOTO, 0}};
  HostMemory heap;
  const TokenMachine tm;
  EXPECT_THROW(tm.run(fn, {}, heap, 1000), Error);
}

TEST(TokenMachine, DetectsResidualStack) {
  BytecodeFunction fn;
  fn.name = "t";
  fn.numLocals = 0;
  fn.code = {{Bc::ICONST, 1}, {Bc::HALT, 0}};
  HostMemory heap;
  const TokenMachine tm;
  EXPECT_THROW(tm.run(fn, {}, heap), Error);
}

TEST(TokenMachine, CustomCostModel) {
  TokenCostModel costs;
  costs.constOp = 100;
  const TokenMachine tm(costs);
  BytecodeFunction fn;
  fn.name = "t";
  fn.numLocals = 1;
  fn.code = {{Bc::ICONST, 5}, {Bc::ISTORE, 0}, {Bc::HALT, 0}};
  HostMemory heap;
  const auto r = tm.run(fn, {}, heap);
  EXPECT_EQ(r.cycles, 100u + costs.localOp);
}

/// Profiles `w` the way the host does: one baseline run, then hotRegions.
std::vector<HotRegion> profile(const apps::Workload& w,
                               std::uint64_t threshold, TokenRunResult& run) {
  const BytecodeFunction bc = kir::lowerToBytecode(w.fn);
  HostMemory heap = w.heap;
  run = TokenMachine().run(bc, w.initialLocals, heap);
  return hotRegions(bc, run, threshold);
}

void expectRegion(const HotRegion& r, std::size_t startPc, std::size_t endPc,
                  std::uint64_t executions) {
  EXPECT_EQ(r.startPc, startPc);
  EXPECT_EQ(r.endPc, endPc);
  EXPECT_EQ(r.executions, executions);
}

TEST(Profiler, FindsHotLoopInAdpcm) {
  // Hottest first: the inner bit-scan loop (up to 3x per sample), then the
  // sample loop, which runs once per sample.
  TokenRunResult run;
  const auto small = profile(apps::makeAdpcm(64, 1), /*threshold=*/32, run);
  ASSERT_EQ(small.size(), 2u);
  expectRegion(small[0], 70, 92, 135);
  expectRegion(small[1], 8, 131, 64);

  const auto paper = profile(apps::makeAdpcm(416, 1), /*threshold=*/100, run);
  ASSERT_EQ(paper.size(), 2u);
  expectRegion(paper[0], 70, 92, 918);
  expectRegion(paper[1], 8, 131, 416);
}

TEST(Profiler, ThresholdFiltersColdBranches) {
  TokenRunResult run;
  EXPECT_TRUE(profile(apps::makeGcd(12, 8), 1'000'000, run).empty());
  // The raw counters are still collected: the loop's only back-edge, from
  // pc 15 to pc 0, is taken twice.
  std::uint64_t total = 0;
  for (const std::uint64_t count : run.backEdges) total += count;
  EXPECT_EQ(total, 2u);
  const auto all = profile(apps::makeGcd(12, 8), /*threshold=*/1, run);
  ASSERT_EQ(all.size(), 1u);
  expectRegion(all[0], 0, 15, 2);
}

TEST(TokenMachine, BundledKernelBytecodeMatchesGolden) {
  // Pins the baseline side of Table II: one line per bundled kernel at
  // unroll 1 and 2, after the frontend pipeline, giving the instruction
  // count, the SHA-256 of the disassembly and the token-machine cycles on
  // the kernel's own inputs. Regenerate with CGRA_REGEN_GOLDENS=1
  // (tools/regen_goldens.sh) only when the lowering or the cost model
  // changes on purpose.
  const std::string path =
      std::string(CGRA_GOLDEN_DIR) + "/bytecode_baseline.txt";
  std::vector<std::string> lines;
  for (const apps::Workload& w : apps::allWorkloads()) {
    for (const unsigned unroll : {1u, 2u}) {
      const kir::Function fn =
          kir::runFrontendPipeline(w.fn, {.unrollFactor = unroll}).fn;
      const BytecodeFunction bc = kir::lowerToBytecode(fn);
      HostMemory heap = w.heap;
      const TokenRunResult run = TokenMachine().run(bc, w.initialLocals, heap);
      lines.push_back(w.name + " u" + std::to_string(unroll) + " " +
                      std::to_string(bc.code.size()) + " " +
                      Sha256::hexOf(disassemble(bc)) + " " +
                      std::to_string(run.cycles));
    }
  }

  if (std::getenv("CGRA_REGEN_GOLDENS") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    for (const std::string& line : lines) out << line << "\n";
    return;
  }

  std::ifstream golden(path);
  ASSERT_TRUE(golden.is_open()) << "missing " << path;
  std::vector<std::string> expected;
  for (std::string line; std::getline(golden, line);)
    if (!line.empty()) expected.push_back(line);
  ASSERT_EQ(lines.size(), expected.size());
  for (std::size_t i = 0; i < lines.size(); ++i)
    EXPECT_EQ(lines[i], expected[i]);
}

}  // namespace
}  // namespace cgra
