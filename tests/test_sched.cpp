// Unit tests for the scheduler: mapping failures, option knobs (attraction,
// fusing, priority), home-PE pinning for pWRITEs, the C-Box one-status-per-
// cycle constraint, loop-interval construction, and validator coverage of
// every invariant class.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <thread>

#include "apps/kernels.hpp"
#include "arch/factory.hpp"
#include "ctx/contexts.hpp"
#include "kir/lower_cdfg.hpp"
#include "sched/scheduler.hpp"
#include "sched/validate.hpp"
#include "sim/simulator.hpp"

namespace cgra {
namespace {

Cdfg lowerWorkload(const apps::Workload& w) {
  return kir::lowerToCdfg(w.fn).graph;
}

TEST(Scheduler, RejectsUnsupportedOperations) {
  // A composition whose PEs cannot multiply cannot map a kernel with IMUL.
  FactoryOptions opts;
  Composition base = makeMesh(4, opts);
  std::vector<PEDescriptor> pes;
  for (PEId p = 0; p < 4; ++p) {
    PEDescriptor pe = base.pe(p);
    pe.removeOp(Op::IMUL);
    pes.push_back(std::move(pe));
  }
  const Composition noMul("noMul", std::move(pes), base.interconnect(), 256, 32);

  const Cdfg graph = lowerWorkload(apps::makeDotProduct(4, 1));
  const Scheduler scheduler(noMul);
  const ScheduleReport report = scheduler.schedule(ScheduleRequest(graph));
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.failure.reason, FailureReason::UnsupportedOp);
  EXPECT_NE(report.failure.node, kNoNode);
  EXPECT_NE(report.failure.message.find("IMUL"), std::string::npos);
  // The legacy overload still surfaces the same condition as an exception.
  EXPECT_THROW(scheduler.schedule(ScheduleRequest(graph)).orThrow(), Error);
}

TEST(Scheduler, RejectsWhenContextMemoryTooSmall) {
  FactoryOptions opts;
  opts.contextMemoryLength = 8;  // far too small for ADPCM
  const Composition comp = makeMesh(4, opts);
  const Cdfg graph = lowerWorkload(apps::makeAdpcm(8, 1));
  const Scheduler scheduler(comp);
  const ScheduleReport report = scheduler.schedule(ScheduleRequest(graph));
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.failure.reason, FailureReason::ContextBudget);
}

TEST(Scheduler, MaxContextsOptionOverridesComposition) {
  const Composition comp = makeMesh(4);
  SchedulerOptions opts;
  opts.maxContexts = 4;
  const Cdfg graph = lowerWorkload(apps::makeGcd(4, 6));
  const Scheduler scheduler(comp, opts);
  const ScheduleReport report = scheduler.schedule(ScheduleRequest(graph));
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.failure.reason, FailureReason::ContextBudget);
  EXPECT_NE(report.failure.message.find("4 contexts"), std::string::npos);
}

TEST(Scheduler, SaturatedSinglePECompositionFailsGracefully) {
  // Regression for the occupancy underflow/unbounded-growth class of bugs:
  // a single-PE composition with a tiny context budget saturates every
  // resource map. The scheduler must report unmappable promptly — a hang or
  // runaway allocation here means a downward scan wrapped past cycle 0 or a
  // probe grew a busy table without bound. State is shared with the worker
  // thread via shared_ptr so a hung run (test failure) cannot dangle.
  std::vector<PEDescriptor> pes;
  pes.push_back(PEDescriptor::fullInteger("solo", 32, /*hasDma=*/true));
  Interconnect ic(1);
  ic.computeShortestPaths();
  const auto comp = std::make_shared<Composition>("solo1", std::move(pes),
                                                  std::move(ic), 6, 8);
  const auto graph =
      std::make_shared<Cdfg>(lowerWorkload(apps::makeAdpcm(8, 1)));

  const auto outcome = std::make_shared<std::promise<bool>>();
  std::future<bool> done = outcome->get_future();
  std::thread([comp, graph, outcome] {
    const ScheduleReport r = Scheduler(*comp).schedule(ScheduleRequest(*graph));
    // The kernel cannot possibly fit in 6 contexts: success would be wrong.
    outcome->set_value(!r.ok);
  }).detach();

  ASSERT_EQ(done.wait_for(std::chrono::seconds(30)),
            std::future_status::ready)
      << "scheduler hung on a saturated composition";
  EXPECT_TRUE(done.get());
}

TEST(Scheduler, SchedulesAreValidOnAllCompositions) {
  const Cdfg graph = lowerWorkload(apps::makeAdpcm(8, 1));
  for (unsigned n : meshSizes()) {
    const Composition comp = makeMesh(n);
    const ScheduleReport r = Scheduler(comp).schedule(ScheduleRequest(graph)).orThrow();
    EXPECT_TRUE(verifySchedule(r.schedule, &comp, &graph).empty()) << n;
  }
  for (char c : irregularLabels()) {
    const Composition comp = makeIrregular(c);
    const ScheduleReport r = Scheduler(comp).schedule(ScheduleRequest(graph)).orThrow();
    EXPECT_TRUE(verifySchedule(r.schedule, &comp, &graph).empty()) << c;
  }
}

TEST(Scheduler, EveryPWriteLandsOnItsHomePE) {
  const Cdfg graph = lowerWorkload(apps::makeAdpcm(8, 1));
  const Composition comp = makeMesh(9);
  const ScheduleReport r = Scheduler(comp).schedule(ScheduleRequest(graph)).orThrow();

  // All ops representing pWRITEs of the same variable write one (pe, vreg).
  std::map<VarId, std::pair<PEId, unsigned>> homes;
  for (const ScheduledOp& op : r.schedule.ops) {
    if (op.node == kNoNode || !graph.node(op.node).isPWrite()) continue;
    ASSERT_TRUE(op.writesDest);
    const VarId var = graph.node(op.node).var;
    const auto key = std::make_pair(op.pe, op.destVreg);
    const auto [it, inserted] = homes.try_emplace(var, key);
    if (!inserted) {
      EXPECT_EQ(it->second, key) << "variable " << var;
    }
  }
}

TEST(Scheduler, LiveBindingsCoverLiveInsAndOuts) {
  const Cdfg graph = lowerWorkload(apps::makeAdpcm(8, 1));
  const Composition comp = makeMesh(4);
  const ScheduleReport r = Scheduler(comp).schedule(ScheduleRequest(graph)).orThrow();

  std::set<VarId> liveIn, liveOut;
  for (const LiveBinding& lb : r.schedule.liveIns) liveIn.insert(lb.var);
  for (const LiveBinding& lb : r.schedule.liveOuts) liveOut.insert(lb.var);
  for (VarId v = 0; v < graph.numVariables(); ++v) {
    // Every live-out variable that was touched must be bound.
    if (graph.variable(v).liveOut) {
      EXPECT_TRUE(liveOut.contains(v)) << v;
    }
    // Live-in bindings only for live-in variables.
    if (liveIn.contains(v)) {
      EXPECT_TRUE(graph.variable(v).liveIn) << v;
    }
  }
}

TEST(Scheduler, OneStatusPerCycle) {
  const Cdfg graph = lowerWorkload(apps::makeAdpcm(8, 1));
  const Composition comp = makeMesh(16);
  const ScheduleReport r = Scheduler(comp).schedule(ScheduleRequest(graph)).orThrow();

  std::map<unsigned, unsigned> statusCycles;
  for (const ScheduledOp& op : r.schedule.ops)
    if (op.emitsStatus) ++statusCycles[op.lastCycle()];
  for (const auto& [cycle, count] : statusCycles)
    EXPECT_EQ(count, 1u) << "two comparisons finish at t" << cycle;
}

TEST(Scheduler, LoopIntervalsAreProperlyNested) {
  const Cdfg graph = lowerWorkload(apps::makeMatMul(3, 1));
  const Composition comp = makeMesh(8);
  const ScheduleReport r = Scheduler(comp).schedule(ScheduleRequest(graph)).orThrow();
  ASSERT_EQ(r.schedule.loops.size(), 3u) << "three nested loops";

  std::map<LoopId, LoopInterval> byLoop;
  for (const LoopInterval& li : r.schedule.loops) byLoop[li.loop] = li;
  for (LoopId l = 1; l < graph.numLoops(); ++l) {
    ASSERT_TRUE(byLoop.contains(l));
    const LoopId parent = graph.loop(l).parent;
    if (parent == kRootLoop) continue;
    EXPECT_GE(byLoop[l].start, byLoop[parent].start);
    EXPECT_LT(byLoop[l].end, byLoop[parent].end);
  }
}

TEST(Scheduler, FusingReducesScheduleLength) {
  const Cdfg graph = lowerWorkload(apps::makeAdpcm(8, 1));
  const Composition comp = makeMesh(8);
  SchedulerOptions noFuse;
  noFuse.fuseWrites = false;
  const ScheduleReport fused = Scheduler(comp).schedule(ScheduleRequest(graph)).orThrow();
  const ScheduleReport plain = Scheduler(comp, noFuse).schedule(ScheduleRequest(graph)).orThrow();
  EXPECT_GT(fused.metrics.fusedWrites, 0u);
  EXPECT_EQ(plain.metrics.fusedWrites, 0u);
  EXPECT_LE(fused.schedule.length, plain.schedule.length);
}

TEST(Scheduler, AttractionImprovesScheduleQuality) {
  // The attraction criterion (§V-G) orders PEs by data locality; across the
  // evaluated compositions it must not lose in aggregate schedule length.
  const Cdfg graph = lowerWorkload(apps::makeAdpcm(8, 1));
  SchedulerOptions noAtt;
  noAtt.useAttraction = false;
  unsigned withAtt = 0, withoutAtt = 0;
  for (char c : {'B', 'D', 'E'}) {
    const Composition comp = makeIrregular(c);
    withAtt += Scheduler(comp).schedule(ScheduleRequest(graph)).orThrow().schedule.length;
    withoutAtt += Scheduler(comp, noAtt).schedule(ScheduleRequest(graph)).orThrow().schedule.length;
  }
  for (unsigned n : {8u, 9u}) {
    const Composition comp = makeMesh(n);
    withAtt += Scheduler(comp).schedule(ScheduleRequest(graph)).orThrow().schedule.length;
    withoutAtt += Scheduler(comp, noAtt).schedule(ScheduleRequest(graph)).orThrow().schedule.length;
  }
  EXPECT_LE(withAtt, withoutAtt);
}

TEST(Scheduler, StatsAreConsistent) {
  const Cdfg graph = lowerWorkload(apps::makeFir(6, 3, 1));
  const Composition comp = makeMesh(6);
  const ScheduleReport r = Scheduler(comp).schedule(ScheduleRequest(graph)).orThrow();
  EXPECT_GE(r.metrics.totalMs, 0.0);
  unsigned moveCount = 0, constCount = 0;
  for (const ScheduledOp& op : r.schedule.ops) {
    if (op.node != kNoNode) continue;
    if (op.op == Op::MOVE) ++moveCount;
    if (op.op == Op::CONST) ++constCount;
  }
  EXPECT_EQ(moveCount, r.metrics.copiesInserted);
  EXPECT_EQ(constCount, r.metrics.constsInserted);
}

TEST(Scheduler, DmaOpsOnlyOnDmaPEs) {
  const Cdfg graph = lowerWorkload(apps::makeAdpcm(8, 1));
  const Composition comp = makeMesh(9);
  const ScheduleReport r = Scheduler(comp).schedule(ScheduleRequest(graph)).orThrow();
  for (const ScheduledOp& op : r.schedule.ops)
    if (isMemoryOp(op.op)) {
      EXPECT_TRUE(comp.pe(op.pe).hasDma());
    }
}

TEST(Scheduler, ToStringListsBranchesAndPredication) {
  const Cdfg graph = lowerWorkload(apps::makeGcd(9, 6));
  const Composition comp = makeMesh(4);
  const ScheduleReport r = Scheduler(comp).schedule(ScheduleRequest(graph)).orThrow();
  const std::string dump = r.schedule.toString(comp);
  EXPECT_NE(dump.find("CCU if"), std::string::npos);
  EXPECT_NE(dump.find("[pred"), std::string::npos);
  EXPECT_NE(dump.find("CBOX"), std::string::npos);
}


TEST(Scheduler, MultiHopCopiesOnUnidirectionalRing) {
  // On a one-way ring a value produced "behind" its consumer must travel
  // almost the whole ring through inserted MOVE hops (§V-G routing).
  FactoryOptions opts;
  opts.contextMemoryLength = 512;
  const Composition ring = makeRing(6, /*bidirectional=*/false, opts);
  const Cdfg graph = lowerWorkload(apps::makeEwmaClip(6, 2));
  const ScheduleReport r = Scheduler(ring).schedule(ScheduleRequest(graph)).orThrow();
  EXPECT_TRUE(verifySchedule(r.schedule, &ring, &graph).empty());
  EXPECT_GT(r.metrics.copiesInserted, 0u) << "sparse topology forces copies";
}

TEST(Scheduler, StarTopologyRoutesThroughHub) {
  FactoryOptions opts;
  opts.contextMemoryLength = 512;
  const Composition star = makeStar(5, opts);
  const Cdfg graph = lowerWorkload(apps::makeGcd(21, 14));
  const ScheduleReport r = Scheduler(star).schedule(ScheduleRequest(graph)).orThrow();
  EXPECT_TRUE(verifySchedule(r.schedule, &star, &graph).empty());
  // Any Route between two spokes is impossible directly; every such access
  // must be a hub read or preceded by a copy through PE 0.
  for (const ScheduledOp& op : r.schedule.ops)
    for (const OperandSource& src : op.src)
      if (src.kind == OperandSource::Kind::Route) {
        EXPECT_TRUE(src.srcPE == 0 || op.pe == 0)
            << "spoke-to-spoke route without the hub";
      }
}

TEST(Scheduler, TorusWrapLinksShortenRoutes) {
  FactoryOptions opts;
  opts.contextMemoryLength = 512;
  const Composition torus = makeTorus(3, 3, opts);
  const Composition mesh = makeMeshGrid(3, 3, opts, {0, 8});
  const Cdfg graph = lowerWorkload(apps::makeAdpcm(8, 1));
  const ScheduleReport onTorus = Scheduler(torus).schedule(ScheduleRequest(graph)).orThrow();
  const ScheduleReport onMesh = Scheduler(mesh).schedule(ScheduleRequest(graph)).orThrow();
  EXPECT_TRUE(verifySchedule(onTorus.schedule, &torus, &graph).empty());
  // Wrap links can only help: never more contexts than the open mesh with
  // a small tolerance for heuristic noise.
  EXPECT_LE(onTorus.schedule.length, onMesh.schedule.length + 2);
}

// ---------------------------------------------------------------------------
// Verifier coverage: corrupt valid schedules and expect detection by the
// layer that owns the broken rule (sched/validate.hpp).

class ValidatorDetects : public ::testing::Test {
protected:
  void SetUp() override {
    graph_ = lowerWorkload(apps::makeEwmaClip(6, 1));
    sched_ =
        Scheduler(comp_).schedule(ScheduleRequest(graph_)).orThrow().schedule;
    ASSERT_EQ(verifySchedule(sched_, &comp_, &graph_),
              std::vector<std::string>{});
  }

  /// The first layer that rejects `s`: 1 bounds (the schedule alone), 2 fit
  /// and exclusivity (with the composition), 3 semantics (with the CDFG);
  /// 0 when all three accept it.
  int layerCatching(const Schedule& s) const {
    if (!verifySchedule(s).empty()) return 1;
    if (!verifySchedule(s, &comp_).empty()) return 2;
    if (!verifySchedule(s, &comp_, &graph_).empty()) return 3;
    return 0;
  }

  /// True when the semantic layer reports a violation containing `what`.
  bool reports(const Schedule& s, const std::string& what) const {
    const std::vector<std::string> issues = verifySchedule(s, &comp_, &graph_);
    return std::any_of(issues.begin(), issues.end(), [&](const auto& i) {
      return i.find(what) != std::string::npos;
    });
  }

  /// Moves the op of `ops[index]` to the first start in [0, length) that
  /// layers 1-2 accept and that the semantic layer rejects with a violation
  /// containing `what`; nullopt when no start does.
  std::optional<Schedule> moveOnlySemanticsCatch(
      std::size_t index, const std::string& what) const {
    for (unsigned t = 0; t < sched_.length; ++t) {
      Schedule bad = sched_;
      bad.ops[index].start = t;
      if (layerCatching(bad) == 3 && reports(bad, what)) return bad;
    }
    return std::nullopt;
  }

  Cdfg graph_;
  Composition comp_ = makeMesh(4);
  Schedule sched_;
};

TEST_F(ValidatorDetects, OutOfRangeReferencesWithoutTheComposition) {
  const std::vector<std::pair<const char*, std::function<void(Schedule&)>>>
      edits = {
          {"op pe", [](Schedule& s) { s.ops.at(0).pe = 1u << 28; }},
          {"op start", [](Schedule& s) { s.ops.at(0).start = s.length; }},
          {"dest register",
           [](Schedule& s) {
             ScheduledOp& op = s.ops.at(0);
             op.writesDest = true;
             op.destVreg = s.vregsPerPE.at(op.pe);
           }},
          {"cbox time", [](Schedule& s) { s.cboxOps.at(0).time = s.length; }},
          {"branch target",
           [](Schedule& s) { s.branches.at(0).target = s.length; }},
          {"loop end", [](Schedule& s) { s.loops.at(0).end = s.length; }},
      };
  for (const auto& [name, edit] : edits) {
    Schedule bad = sched_;
    edit(bad);
    EXPECT_EQ(layerCatching(bad), 1) << name;
    EXPECT_THROW(Simulator(comp_, bad), Error) << name;
  }
}

TEST_F(ValidatorDetects, DoubleBookedPE) {
  // Start one op in the same cycle as another op of its PE.
  Schedule bad = sched_;
  bool moved = false;
  for (std::size_t i = 0; i < bad.ops.size() && !moved; ++i)
    for (std::size_t j = i + 1; j < bad.ops.size() && !moved; ++j)
      if (bad.ops[j].pe == bad.ops[i].pe &&
          bad.ops[j].start != bad.ops[i].start &&
          bad.ops[j].duration == bad.ops[i].duration) {
        bad.ops[j].start = bad.ops[i].start;
        moved = true;
      }
  ASSERT_TRUE(moved);
  EXPECT_EQ(layerCatching(bad), 2);
  // The simulator and the context encoder run the same layer.
  EXPECT_THROW(Simulator(comp_, bad), Error);
  EXPECT_THROW(generateContexts(bad, comp_), Error);
}

TEST_F(ValidatorDetects, MissingNode) {
  Schedule bad = sched_;
  // Drop a scheduled CDFG node entirely.
  for (std::size_t i = 0; i < bad.ops.size(); ++i)
    if (bad.ops[i].node != kNoNode &&
        !graph_.node(bad.ops[i].node).isPWrite()) {
      bad.ops.erase(bad.ops.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  EXPECT_EQ(layerCatching(bad), 3);
}

TEST_F(ValidatorDetects, BrokenRouting) {
  Schedule bad = sched_;
  bool mutated = false;
  for (ScheduledOp& op : bad.ops)
    for (OperandSource& src : op.src)
      if (!mutated && src.kind == OperandSource::Kind::Route) {
        // Route from a PE that is not connected to op.pe (itself).
        src.srcPE = op.pe;
        src.vreg = 0;
        mutated = true;
      }
  ASSERT_TRUE(mutated);
  EXPECT_EQ(layerCatching(bad), 2);
}

TEST_F(ValidatorDetects, MissingPredication) {
  Schedule bad = sched_;
  bool mutated = false;
  for (ScheduledOp& op : bad.ops)
    if (!mutated && op.pred) {
      op.pred.reset();
      mutated = true;
    }
  ASSERT_TRUE(mutated);
  EXPECT_EQ(layerCatching(bad), 3);
}

TEST_F(ValidatorDetects, MissingBackBranch) {
  Schedule bad = sched_;
  ASSERT_FALSE(bad.branches.empty());
  bad.branches.pop_back();
  EXPECT_EQ(layerCatching(bad), 3);
}

TEST_F(ValidatorDetects, ScheduleTooLong) {
  Schedule bad = sched_;
  bad.length = comp_.contextMemoryLength() + 1;
  EXPECT_EQ(layerCatching(bad), 2);
}

TEST_F(ValidatorDetects, ViolatedFlowDependency) {
  // Move a flow consumer to a free slot before its producer finishes: only
  // the CDFG says the move is wrong.
  std::optional<Schedule> bad;
  for (std::size_t i = 0; i < sched_.ops.size() && !bad; ++i) {
    const NodeId node = sched_.ops[i].node;
    const bool consumer =
        node != kNoNode &&
        std::any_of(graph_.inEdges(node).begin(), graph_.inEdges(node).end(),
                    [](const Edge& e) { return e.kind == DepKind::Flow; });
    if (consumer) bad = moveOnlySemanticsCatch(i, "(flow) violated");
  }
  ASSERT_TRUE(bad.has_value());
  EXPECT_NO_THROW(Simulator(comp_, *bad)) << "layers 1-2 accept it";
}

TEST_F(ValidatorDetects, DroppedStatusConsumer) {
  Schedule bad = sched_;
  const auto consumer = std::find_if(
      bad.cboxOps.begin(), bad.cboxOps.end(), [](const CBoxOp& c) {
        return std::any_of(
            c.inputs.begin(), c.inputs.end(), [](const CBoxOp::Input& in) {
              return in.kind == CBoxOp::Input::Kind::Status;
            });
      });
  ASSERT_NE(consumer, bad.cboxOps.end());
  bad.cboxOps.erase(consumer);
  EXPECT_EQ(layerCatching(bad), 3);
  EXPECT_TRUE(reports(bad, "never consumed"));
}

TEST_F(ValidatorDetects, MisboundVariableHome) {
  // In-range register edits of a live-out variable's bindings and of the op
  // that writes its home: only the CDFG's variables tell them apart.
  ASSERT_FALSE(sched_.liveOuts.empty());
  const LiveBinding home = sched_.liveOuts[0];
  const unsigned regs = sched_.vregsPerPE.at(home.pe);
  ASSERT_GE(regs, 2u);
  const unsigned other = (home.vreg + 1) % regs;
  const auto homeWriter = [&](Schedule& s) {
    const auto it = std::find_if(
        s.ops.begin(), s.ops.end(), [&](const ScheduledOp& op) {
          return op.writesDest && op.pe == home.pe &&
                 op.destVreg == home.vreg;
        });
    EXPECT_NE(it, s.ops.end());
    return it;
  };
  const std::vector<std::pair<const char*, std::function<void(Schedule&)>>>
      edits = {
          {"is not its home", [&](Schedule& s) { s.liveOuts[0].vreg = other; }},
          {"has two homes",
           [](Schedule& s) { s.varHomes.push_back(s.varHomes.at(0)); }},
          {"live-out bindings",
           [](Schedule& s) { s.liveOuts.push_back(s.liveOuts[0]); }},
          {"does not write the home",
           [&](Schedule& s) { homeWriter(s)->destVreg = other; }},
          {"does not write the home",
           [&](Schedule& s) { homeWriter(s)->writesDest = false; }},
      };
  for (const auto& [what, edit] : edits) {
    Schedule bad = sched_;
    edit(bad);
    EXPECT_EQ(layerCatching(bad), 3) << what;
    EXPECT_TRUE(reports(bad, what)) << what;
  }
  // Decoded context images carry no homes: nothing to check them against.
  Schedule decoded = sched_;
  decoded.varHomes.clear();
  EXPECT_EQ(layerCatching(decoded), 0);
}

TEST_F(ValidatorDetects, EscapedLoopOp) {
  // Append one idle context after the loop and move a loop op into it.
  const auto inLoop = std::find_if(
      sched_.ops.begin(), sched_.ops.end(), [&](const ScheduledOp& op) {
        return op.node != kNoNode && op.duration == 1 &&
               graph_.node(op.node).loop != kRootLoop;
      });
  ASSERT_NE(inLoop, sched_.ops.end());
  Schedule bad = sched_;
  bad.length += 1;
  bad.ops[static_cast<std::size_t>(inLoop - sched_.ops.begin())].start =
      sched_.length;
  EXPECT_EQ(layerCatching(bad), 3);
  EXPECT_TRUE(reports(bad, "escapes interval"));
}

}  // namespace
}  // namespace cgra
