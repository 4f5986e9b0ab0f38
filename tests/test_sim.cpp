// Unit tests for the cycle-accurate simulator using hand-built schedules:
// precise commit timing, routed operand reads, predication gating, branch
// timing, multi-cycle operations across back-branches, DMA suppression and
// the invocation cycle accounting.
#include <gtest/gtest.h>

#include "arch/factory.hpp"
#include "sim/simulator.hpp"

namespace cgra {
namespace {

/// Minimal composition for hand-built schedules.
Composition smallComp() {
  FactoryOptions opts;
  opts.regfileSize = 16;
  return makeMeshGrid(1, 2, opts, {0});
}

ScheduledOp makeOp(Op op, PEId pe, unsigned start, unsigned duration) {
  ScheduledOp out;
  out.op = op;
  out.pe = pe;
  out.start = start;
  out.duration = duration;
  return out;
}

OperandSource own(unsigned vreg) {
  return OperandSource{OperandSource::Kind::Own, 0, vreg, 0};
}
OperandSource route(PEId pe, unsigned vreg) {
  return OperandSource{OperandSource::Kind::Route, pe, vreg, 0};
}
OperandSource imm(std::int32_t v) {
  return OperandSource{OperandSource::Kind::Imm, 0, 0, v};
}

TEST(Simulator, ConstThenAddCommitTiming) {
  const Composition comp = smallComp();
  Schedule s;
  s.length = 3;
  s.vregsPerPE = {4, 4};
  // t0: r0 = 7; t1: r1 = 8; t2: r2 = r0 + r1.
  auto c0 = makeOp(Op::CONST, 0, 0, 1);
  c0.src[0] = imm(7);
  c0.writesDest = true;
  c0.destVreg = 0;
  auto c1 = makeOp(Op::CONST, 0, 1, 1);
  c1.src[0] = imm(8);
  c1.writesDest = true;
  c1.destVreg = 1;
  auto add = makeOp(Op::IADD, 0, 2, 1);
  add.src[0] = own(0);
  add.src[1] = own(1);
  add.writesDest = true;
  add.destVreg = 2;
  s.ops = {c0, c1, add};
  s.liveOuts = {LiveBinding{0, 0, 2}};

  HostMemory heap;
  const SimResult r = Simulator(comp, s).run({}, heap);
  EXPECT_EQ(r.liveOuts.at(0), 15);
  EXPECT_EQ(r.runCycles, 3u);
  // Invocation: run + one live-out transfer (2 cycles) + fixed overhead.
  EXPECT_EQ(r.invocationCycles,
            3u + Simulator::kCyclesPerTransfer + Simulator::kInvocationOverhead);
}

TEST(Simulator, RoutedReadSeesNeighborRegister) {
  const Composition comp = smallComp();
  Schedule s;
  s.length = 2;
  s.vregsPerPE = {4, 4};
  auto c0 = makeOp(Op::CONST, 0, 0, 1);
  c0.src[0] = imm(41);
  c0.writesDest = true;
  c0.destVreg = 0;
  auto add = makeOp(Op::IADD, 1, 1, 1);  // PE1 reads PE0's r0 via the link
  add.src[0] = route(0, 0);
  auto cOne = makeOp(Op::CONST, 1, 0, 1);
  cOne.src[0] = imm(1);
  cOne.writesDest = true;
  cOne.destVreg = 0;
  add.src[1] = own(0);
  add.writesDest = true;
  add.destVreg = 1;
  s.ops = {c0, cOne, add};
  s.liveOuts = {LiveBinding{0, 1, 1}};

  HostMemory heap;
  const SimResult r = Simulator(comp, s).run({}, heap);
  EXPECT_EQ(r.liveOuts.at(0), 42);
}

TEST(Simulator, LiveInValuesArriveBeforeCycle0) {
  const Composition comp = smallComp();
  Schedule s;
  s.length = 1;
  s.vregsPerPE = {4, 4};
  auto add = makeOp(Op::IADD, 0, 0, 1);
  add.src[0] = own(0);
  add.src[1] = own(0);
  add.writesDest = true;
  add.destVreg = 1;
  s.ops = {add};
  s.liveIns = {LiveBinding{0, 0, 0}};
  s.liveOuts = {LiveBinding{1, 0, 1}};

  HostMemory heap;
  const SimResult r = Simulator(comp, s).run({{0, 21}}, heap);
  EXPECT_EQ(r.liveOuts.at(1), 42);
}

TEST(Simulator, PredicationSuppressesRegisterWrite) {
  const Composition comp = smallComp();
  Schedule s;
  s.length = 4;
  s.vregsPerPE = {4, 4};
  s.cboxSlotsUsed = 1;
  // t0: r0 = 5. t1: cmp r0 < 3 -> status, cbox stores it in slot 0.
  // t2: predicated CONST r0 = 99 (pred true) — must be suppressed.
  // t3: predicated CONST r0 = 77 (pred false) — must commit.
  auto c0 = makeOp(Op::CONST, 0, 0, 1);
  c0.src[0] = imm(5);
  c0.writesDest = true;
  c0.destVreg = 0;
  auto three = makeOp(Op::CONST, 1, 0, 1);
  three.src[0] = imm(3);
  three.writesDest = true;
  three.destVreg = 0;
  auto cmp = makeOp(Op::IFLT, 0, 1, 1);
  cmp.src[0] = own(0);
  cmp.src[1] = route(1, 0);
  cmp.emitsStatus = true;
  CBoxOp store;
  store.time = 1;
  store.inputs = {CBoxOp::Input{CBoxOp::Input::Kind::Status, 0, true}};
  store.logic = CBoxOp::Logic::Pass;
  store.writeSlot = 0;
  auto wTrue = makeOp(Op::CONST, 0, 2, 1);
  wTrue.src[0] = imm(99);
  wTrue.writesDest = true;
  wTrue.destVreg = 0;
  wTrue.pred = PredRef{0, true};
  auto wFalse = makeOp(Op::CONST, 0, 3, 1);
  wFalse.src[0] = imm(77);
  wFalse.writesDest = true;
  wFalse.destVreg = 0;
  wFalse.pred = PredRef{0, false};
  s.ops = {c0, three, cmp, wTrue, wFalse};
  s.cboxOps = {store};
  s.liveOuts = {LiveBinding{0, 0, 0}};

  HostMemory heap;
  const SimResult r = Simulator(comp, s).run({}, heap);
  EXPECT_EQ(r.liveOuts.at(0), 77) << "5 < 3 is false: slot=0";
}

TEST(Simulator, PredicationSuppressesDmaAccess) {
  const Composition comp = smallComp();
  Schedule s;
  s.length = 2;
  s.vregsPerPE = {4, 4};
  s.cboxSlotsUsed = 1;
  // Condition slot 0 stays 0; a predicated-ON store with an out-of-bounds
  // index must be skipped entirely (this is why DMA is always predicated).
  auto handle = makeOp(Op::CONST, 0, 0, 1);
  handle.src[0] = imm(0);
  handle.writesDest = true;
  handle.destVreg = 0;
  auto store = makeOp(Op::DMA_STORE, 0, 1, 1);
  store.src[0] = own(0);
  store.src[1] = imm(9999);  // way out of bounds
  store.src[2] = imm(1);
  store.pred = PredRef{0, true};
  s.ops = {handle, store};

  HostMemory heap;
  heap.alloc(4);
  const SimResult r = Simulator(comp, s).run({}, heap);
  EXPECT_EQ(r.dmaStores, 0u);
}

TEST(Simulator, UnpredicatedOutOfBoundsAccessFaults) {
  const Composition comp = smallComp();
  Schedule s;
  s.length = 1;
  s.vregsPerPE = {4, 4};
  auto load = makeOp(Op::DMA_LOAD, 0, 0, 1);
  load.src[0] = imm(0);
  load.src[1] = imm(50);
  load.writesDest = true;
  load.destVreg = 0;
  s.ops = {load};

  HostMemory heap;
  heap.alloc(4);
  EXPECT_THROW(Simulator(comp, s).run({}, heap), Error);
}

TEST(Simulator, BackBranchLoopsAndExits) {
  const Composition comp = smallComp();
  Schedule s;
  s.length = 3;
  s.vregsPerPE = {4, 4};
  s.cboxSlotsUsed = 1;
  // r0 starts 0 (live-in default); loop body t1..t2 increments r0 and loops
  // while r0 < 3: executes 4 passes (3 committed + dry-pass semantics are
  // the scheduler's business; here the branch reads the raw condition).
  auto one = makeOp(Op::CONST, 0, 0, 1);
  one.src[0] = imm(1);
  one.writesDest = true;
  one.destVreg = 1;
  auto three = makeOp(Op::CONST, 1, 0, 1);
  three.src[0] = imm(3);
  three.writesDest = true;
  three.destVreg = 0;
  auto add = makeOp(Op::IADD, 0, 1, 1);
  add.src[0] = own(0);
  add.src[1] = own(1);
  add.writesDest = true;
  add.destVreg = 0;
  auto cmp = makeOp(Op::IFLT, 0, 2, 1);
  cmp.src[0] = own(0);
  cmp.src[1] = route(1, 0);
  cmp.emitsStatus = true;
  CBoxOp store;
  store.time = 2;
  store.inputs = {CBoxOp::Input{CBoxOp::Input::Kind::Status, 0, true}};
  store.logic = CBoxOp::Logic::Pass;
  store.writeSlot = 0;
  // Branch at t2 reads the PREVIOUS pass's condition value (slots commit at
  // end of cycle), so the loop runs one extra pass after r0 reaches 3.
  BranchOp br;
  br.time = 2;
  br.target = 1;
  br.conditional = true;
  br.pred = PredRef{0, true};
  s.ops = {one, three, add, cmp};
  s.cboxOps = {store};
  s.branches = {br};
  s.liveIns = {LiveBinding{0, 0, 0}};
  s.liveOuts = {LiveBinding{0, 0, 0}};

  HostMemory heap;
  const SimResult r = Simulator(comp, s).run({{0, 0}}, heap);
  // Pass 1: r0=1, slot<-1 (branch read slot=0 initial -> falls?); the branch
  // at t2 of pass 1 reads slot value from BEFORE this cycle's write: 0.
  // Hence exactly one pass: r0 == 1. This pins down the read-before-write
  // branch timing.
  EXPECT_EQ(r.liveOuts.at(0), 1);
  EXPECT_EQ(r.runCycles, 3u);
}

TEST(Simulator, BranchReadsSlotWrittenInEarlierCycle) {
  const Composition comp = smallComp();
  Schedule s;
  s.length = 4;
  s.vregsPerPE = {4, 4};
  s.cboxSlotsUsed = 1;
  // t0: r0=1; t1: cmp 1<2 -> slot0=1 (end of t1); t3: branch back to t2 if
  // slot0 — infinite unless the slot is later rewritten; we instead branch
  // on polarity false to verify the branch does NOT fire when slot is 1.
  auto c0 = makeOp(Op::CONST, 0, 0, 1);
  c0.src[0] = imm(1);
  c0.writesDest = true;
  c0.destVreg = 0;
  auto two = makeOp(Op::CONST, 1, 0, 1);
  two.src[0] = imm(2);
  two.writesDest = true;
  two.destVreg = 0;
  auto cmp = makeOp(Op::IFLT, 0, 1, 1);
  cmp.src[0] = own(0);
  cmp.src[1] = route(1, 0);
  cmp.emitsStatus = true;
  CBoxOp store;
  store.time = 1;
  store.inputs = {CBoxOp::Input{CBoxOp::Input::Kind::Status, 0, true}};
  store.logic = CBoxOp::Logic::Pass;
  store.writeSlot = 0;
  BranchOp br;
  br.time = 3;
  br.target = 2;
  br.conditional = true;
  br.pred = PredRef{0, false};  // taken only when slot is 0 — it is 1
  s.ops = {c0, two, cmp};
  s.cboxOps = {store};
  s.branches = {br};

  HostMemory heap;
  const SimResult r = Simulator(comp, s).run({}, heap);
  EXPECT_EQ(r.runCycles, 4u) << "branch not taken, linear execution";
}

TEST(Simulator, MultiCycleOpCommitsAtEnd) {
  const Composition comp = smallComp();
  Schedule s;
  s.length = 4;
  s.vregsPerPE = {4, 4};
  auto c0 = makeOp(Op::CONST, 0, 0, 1);
  c0.src[0] = imm(6);
  c0.writesDest = true;
  c0.destVreg = 0;
  auto mul = makeOp(Op::IMUL, 0, 1, 2);  // occupies t1..t2, commits end t2
  mul.src[0] = own(0);
  mul.src[1] = own(0);
  mul.writesDest = true;
  mul.destVreg = 1;
  auto add = makeOp(Op::IADD, 0, 3, 1);
  add.src[0] = own(1);
  add.src[1] = own(0);
  add.writesDest = true;
  add.destVreg = 2;
  s.ops = {c0, mul, add};
  s.liveOuts = {LiveBinding{0, 0, 2}};

  HostMemory heap;
  const SimResult r = Simulator(comp, s).run({}, heap);
  EXPECT_EQ(r.liveOuts.at(0), 42);
}

TEST(Simulator, CBoxAndCombine) {
  const Composition comp = smallComp();
  Schedule s;
  s.length = 4;
  s.vregsPerPE = {4, 4};
  s.cboxSlotsUsed = 3;
  // slot0 <- 1 (status of 1<2), slot1 <- 0 (status of 2<1), then
  // slot2 <- slot0 & !slot1 = 1; verify via predicated write.
  auto one = makeOp(Op::CONST, 0, 0, 1);
  one.src[0] = imm(1);
  one.writesDest = true;
  one.destVreg = 0;
  auto two = makeOp(Op::CONST, 1, 0, 1);
  two.src[0] = imm(2);
  two.writesDest = true;
  two.destVreg = 0;
  auto cmpA = makeOp(Op::IFLT, 0, 1, 1);
  cmpA.src[0] = own(0);
  cmpA.src[1] = route(1, 0);
  cmpA.emitsStatus = true;
  auto cmpB = makeOp(Op::IFLT, 1, 2, 1);
  cmpB.src[0] = own(0);
  cmpB.src[1] = route(0, 0);
  cmpB.emitsStatus = true;
  CBoxOp s0;
  s0.time = 1;
  s0.inputs = {CBoxOp::Input{CBoxOp::Input::Kind::Status, 0, true}};
  s0.writeSlot = 0;
  CBoxOp s1;
  s1.time = 2;
  s1.inputs = {CBoxOp::Input{CBoxOp::Input::Kind::Status, 0, true}};
  s1.writeSlot = 1;
  CBoxOp comb;
  comb.time = 3;
  comb.inputs = {CBoxOp::Input{CBoxOp::Input::Kind::Stored, 0, true},
                 CBoxOp::Input{CBoxOp::Input::Kind::Stored, 1, false}};
  comb.logic = CBoxOp::Logic::And;
  comb.writeSlot = 2;
  s.ops = {one, two, cmpA, cmpB};
  s.cboxOps = {s0, s1, comb};

  HostMemory heap;
  // No predicated consumer needed: absence of exceptions plus cycle count.
  const SimResult r = Simulator(comp, s).run({}, heap);
  EXPECT_EQ(r.runCycles, 4u);
  // cmpB computes 2<1? No wait: cmpB on PE1 reads own r0=2, routes PE0 r0=1:
  // 2<1 = false -> slot1 = 0, so slot2 = 1 & !0 = 1. Checked implicitly by
  // the C-Box assertions (consuming a status that exists).
}

TEST(Simulator, CycleBudgetGuard) {
  const Composition comp = smallComp();
  Schedule s;
  s.length = 2;
  s.vregsPerPE = {1, 1};
  s.cboxSlotsUsed = 1;
  BranchOp br;
  br.time = 1;
  br.target = 0;
  br.conditional = false;  // unconditional infinite loop
  s.branches = {br};
  HostMemory heap;
  SimOptions opts;
  opts.maxCycles = 1000;
  EXPECT_THROW(Simulator(comp, s).run({}, heap, opts), Error);
}

TEST(Simulator, EnergyAccumulates) {
  const Composition comp = smallComp();
  Schedule s;
  s.length = 1;
  s.vregsPerPE = {2, 1};
  auto c0 = makeOp(Op::CONST, 0, 0, 1);
  c0.src[0] = imm(5);
  c0.writesDest = true;
  c0.destVreg = 0;
  s.ops = {c0};
  HostMemory heap;
  const SimResult r = Simulator(comp, s).run({}, heap);
  EXPECT_GT(r.energy, 0.0);
}

TEST(Simulator, OpItsPECannotRunFailsConstruction) {
  // PE 1 of the small composition has no DMA. The load is predicated on a
  // slot that is never set, so it would never issue unsuppressed; the
  // simulator still rejects it up front, while building its energy table.
  const Composition comp = smallComp();
  ASSERT_FALSE(comp.pe(1).supports(Op::DMA_LOAD));
  Schedule s;
  s.length = 1;
  s.vregsPerPE = {1, 1};
  s.cboxSlotsUsed = 1;
  auto load = makeOp(Op::DMA_LOAD, 1, 0, 1);
  load.src[0] = imm(0);
  load.src[1] = imm(0);
  load.writesDest = true;
  load.destVreg = 0;
  load.pred = PredRef{0, true};
  s.ops = {load};
  try {
    Simulator sim(comp, s);
    FAIL() << "an op its PE cannot run must fail construction";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("does not support operation"),
              std::string::npos)
        << e.what();
  }
}

TEST(SimCountersTest, OffByDefaultAndEngagedOnRequest) {
  const Composition comp = smallComp();
  Schedule s;
  s.length = 1;
  s.vregsPerPE = {2, 1};
  auto c0 = makeOp(Op::CONST, 0, 0, 1);
  c0.src[0] = imm(5);
  c0.writesDest = true;
  c0.destVreg = 0;
  s.ops = {c0};
  HostMemory heap;
  const SimResult off = Simulator(comp, s).run({}, heap);
  EXPECT_FALSE(off.counters.has_value());
  SimOptions opts;
  opts.collectCounters = true;
  HostMemory heap2;
  const SimResult on = Simulator(comp, s).run({}, heap2, opts);
  ASSERT_TRUE(on.counters.has_value());
  EXPECT_EQ(on.counters->cycles, on.runCycles);
}

TEST(SimCountersTest, PerPECyclesPartitionRunCycles) {
  // Two PEs, three contexts: PE0 busy at t0/t2 and NOP at t1, PE1 busy only
  // at t0 (via a routed read at t2, still idle there). For every PE the
  // busy/nop/idle split must partition SimResult.runCycles exactly.
  const Composition comp = smallComp();
  Schedule s;
  s.length = 3;
  s.vregsPerPE = {4, 4};
  auto c0 = makeOp(Op::CONST, 0, 0, 1);
  c0.src[0] = imm(2);
  c0.writesDest = true;
  c0.destVreg = 0;
  auto c1 = makeOp(Op::CONST, 1, 0, 1);
  c1.src[0] = imm(3);
  c1.writesDest = true;
  c1.destVreg = 0;
  auto nop = makeOp(Op::NOP, 0, 1, 1);
  auto add = makeOp(Op::IADD, 0, 2, 1);
  add.src[0] = own(0);
  add.src[1] = route(1, 0);
  add.writesDest = true;
  add.destVreg = 1;
  s.ops = {c0, c1, nop, add};
  s.liveOuts = {LiveBinding{0, 0, 1}};

  HostMemory heap;
  SimOptions opts;
  opts.collectCounters = true;
  const SimResult r = Simulator(comp, s).run({}, heap, opts);
  ASSERT_TRUE(r.counters.has_value());
  const SimCounters& c = *r.counters;
  ASSERT_EQ(c.perPE.size(), 2u);
  for (const PECounters& pc : c.perPE)
    EXPECT_EQ(pc.busyCycles + pc.nopCycles + pc.idleCycles, r.runCycles);
  EXPECT_EQ(c.perPE[0].busyCycles, 2u);
  EXPECT_EQ(c.perPE[0].nopCycles, 1u);
  EXPECT_EQ(c.perPE[0].idleCycles, 0u);
  EXPECT_EQ(c.perPE[1].busyCycles, 1u);
  EXPECT_EQ(c.perPE[1].idleCycles, 2u);
  // Op-class histogram: PE0 issued CONST, NOP, IADD (Alu).
  EXPECT_EQ(c.perPE[0].byClass[static_cast<std::size_t>(OpClass::Const)], 1u);
  EXPECT_EQ(c.perPE[0].byClass[static_cast<std::size_t>(OpClass::Nop)], 1u);
  EXPECT_EQ(c.perPE[0].byClass[static_cast<std::size_t>(OpClass::Alu)], 1u);
  // The routed operand is an RF read on the *producer* PE and one transfer
  // on the 1 -> 0 link.
  EXPECT_EQ(c.perPE[1].rfReads, 1u);
  EXPECT_EQ(c.transfersOn(1, 0), 1u);
  EXPECT_EQ(c.totalLinkTransfers(), 1u);
  // Committed writes: c0 + add on PE0 (2 distinct vregs), c1 on PE1.
  EXPECT_EQ(c.perPE[0].rfWrites, 2u);
  EXPECT_EQ(c.perPE[0].regsTouched, 2u);
  EXPECT_EQ(c.perPE[1].rfWrites, 1u);
}

TEST(SimCountersTest, SquashedOpFetchesOperandsButCommitsNothing) {
  // Same shape as PredicationSuppressesRegisterWrite: slot 0 ends up false,
  // so the pred-true CONST is squashed and the pred-false CONST commits.
  // The squashed op still counts as issued (operand latch happens before
  // the predication gate); its RF write must not.
  const Composition comp = smallComp();
  Schedule s;
  s.length = 4;
  s.vregsPerPE = {4, 4};
  s.cboxSlotsUsed = 1;
  auto c0 = makeOp(Op::CONST, 0, 0, 1);
  c0.src[0] = imm(5);
  c0.writesDest = true;
  c0.destVreg = 0;
  auto three = makeOp(Op::CONST, 1, 0, 1);
  three.src[0] = imm(3);
  three.writesDest = true;
  three.destVreg = 0;
  auto cmp = makeOp(Op::IFLT, 0, 1, 1);
  cmp.src[0] = own(0);
  cmp.src[1] = route(1, 0);
  cmp.emitsStatus = true;
  CBoxOp store;
  store.time = 1;
  store.inputs = {CBoxOp::Input{CBoxOp::Input::Kind::Status, 0, true}};
  store.logic = CBoxOp::Logic::Pass;
  store.writeSlot = 0;
  auto wTrue = makeOp(Op::CONST, 0, 2, 1);
  wTrue.src[0] = imm(99);
  wTrue.writesDest = true;
  wTrue.destVreg = 0;
  wTrue.pred = PredRef{0, true};
  auto wFalse = makeOp(Op::CONST, 0, 3, 1);
  wFalse.src[0] = imm(77);
  wFalse.writesDest = true;
  wFalse.destVreg = 0;
  wFalse.pred = PredRef{0, false};
  s.ops = {c0, three, cmp, wTrue, wFalse};
  s.cboxOps = {store};
  s.liveOuts = {LiveBinding{0, 0, 0}};

  HostMemory heap;
  SimOptions opts;
  opts.collectCounters = true;
  const SimResult r = Simulator(comp, s).run({}, heap, opts);
  ASSERT_TRUE(r.counters.has_value());
  const SimCounters& c = *r.counters;
  EXPECT_EQ(c.perPE[0].opsIssued, 4u);  // c0, cmp, wTrue, wFalse
  EXPECT_EQ(c.perPE[0].squashedOps, 1u);
  EXPECT_EQ(c.totalSquashed(), 1u);
  // Commits: c0 and wFalse only, both to vreg 0.
  EXPECT_EQ(c.perPE[0].rfWrites, 2u);
  EXPECT_EQ(c.perPE[0].regsTouched, 1u);
  EXPECT_EQ(c.perPE[0].byClass[static_cast<std::size_t>(OpClass::Compare)],
            1u);
  // One slot write from one live status wire; no combine network involved.
  EXPECT_EQ(c.cboxSlotWrites, 1u);
  EXPECT_EQ(c.cboxStatusReads, 1u);
  EXPECT_EQ(c.cboxCombines, 0u);
}

TEST(SimCountersTest, WindowResetsPerInvocationAndSkipsOutsideContexts) {
  // Three contexts, each a CONST into PE0 r0; the window covers [1, 3) only.
  // Counters must show zero executions of context 0, the live-in/out
  // transfers must land in the invocation protocol (never PE busy), and a
  // second runWindow call must restart from zero rather than accumulate.
  const Composition comp = smallComp();
  Schedule s;
  s.length = 3;
  s.vregsPerPE = {4, 4};
  for (unsigned t = 0; t < 3; ++t) {
    auto op = makeOp(Op::CONST, 0, t, 1);
    op.src[0] = imm(static_cast<std::int32_t>(100 + t));
    op.writesDest = true;
    op.destVreg = 0;
    s.ops.push_back(op);
  }
  const std::vector<LiveBinding> liveIns = {LiveBinding{7, 1, 0}};
  const std::vector<LiveBinding> liveOuts = {LiveBinding{8, 0, 0}};

  HostMemory heap;
  SimOptions opts;
  opts.collectCounters = true;
  const Simulator sim(comp, s);
  const SimResult r1 = sim.runWindow({{7, 1}}, heap, liveIns, liveOuts, 1, 3,
                                     opts);
  ASSERT_TRUE(r1.counters.has_value());
  const SimCounters& c = *r1.counters;
  EXPECT_EQ(r1.liveOuts.at(8), 102) << "window must end on context 2's value";
  EXPECT_EQ(r1.runCycles, 2u);
  ASSERT_EQ(c.contextExec.size(), 3u);
  EXPECT_EQ(c.contextExec[0], 0u) << "context 0 is outside the window";
  EXPECT_EQ(c.contextExec[1], 1u);
  EXPECT_EQ(c.contextExec[2], 1u);
  // One live-in and one live-out transfer at 2 cycles each, plus the fixed
  // handshake: invocation protocol only, not PE busy time.
  EXPECT_EQ(c.liveInTransferCycles, 2u);
  EXPECT_EQ(c.liveOutTransferCycles, 2u);
  EXPECT_EQ(c.overheadCycles, Simulator::kInvocationOverhead);
  EXPECT_EQ(r1.invocationCycles,
            r1.runCycles + c.liveInTransferCycles + c.liveOutTransferCycles +
                Simulator::kInvocationOverhead);
  EXPECT_EQ(c.perPE[0].busyCycles, 2u);
  EXPECT_EQ(c.perPE[0].rfWrites, 2u);

  HostMemory heap2;
  const SimResult r2 = sim.runWindow({{7, 1}}, heap2, liveIns, liveOuts, 1, 3,
                                     opts);
  ASSERT_TRUE(r2.counters.has_value());
  EXPECT_EQ(r2.counters->perPE[0].busyCycles, c.perPE[0].busyCycles)
      << "counters must reset per invocation, not accumulate";
  EXPECT_EQ(r2.counters->contextExec, c.contextExec);
  EXPECT_EQ(r2.counters->toJson().dump(), c.toJson().dump())
      << "identical invocations must serialize byte-identically";
}

}  // namespace
}  // namespace cgra
