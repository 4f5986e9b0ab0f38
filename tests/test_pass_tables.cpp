// Exactness of the scheduler's per-run tables. The analysis pass fills a
// fusable-writer table, a variable × loop write table and a PE-order table
// once per run, and the cost model re-ranks a node's PE order only when a
// placement changes its attraction row. These tests drive the pass
// pipeline by hand over every bundled kernel × the 12 paper compositions ×
// unroll 1 and 2, and check each table against the on-demand computation
// it replaces: the fusable pWRITE derived per node, the CDFG's
// varWrittenInLoop scan, and a fresh stable sort of each node's attraction
// row after every placement. The composition tables the probes read (the
// interconnect's link and next-hop tables, each PE's op-support bits) are
// checked against the source lists and op maps they summarize.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "apps/kernels.hpp"
#include "arch/factory.hpp"
#include "kir/lower_cdfg.hpp"
#include "kir/passes/unroll_pass.hpp"
#include "sched/passes/analysis_pass.hpp"
#include "sched/passes/cost_model.hpp"
#include "sched/passes/finalize_pass.hpp"
#include "sched/passes/fusing_pass.hpp"
#include "sched/passes/loop_pass.hpp"
#include "sched/passes/placement_pass.hpp"
#include "sched/scheduler.hpp"

namespace cgra::passes {
namespace {

std::vector<Composition> paperCompositions() {
  std::vector<Composition> comps;
  for (unsigned n : meshSizes()) comps.push_back(makeMesh(n));
  for (char label : irregularLabels()) comps.push_back(makeIrregular(label));
  return comps;
}

/// The fusion-candidate rule as placement used to evaluate it per probe:
/// the single pWRITE consumer of `id`'s value.
std::optional<NodeId> derivedFusablePWrite(const Cdfg& g, bool fuseWrites,
                                           NodeId id) {
  if (!fuseWrites) return std::nullopt;
  const Node& n = g.node(id);
  if (n.kind != NodeKind::Operation || !writesRegister(n.op))
    return std::nullopt;
  std::optional<NodeId> writer;
  for (const Edge& e : g.outEdges(id)) {
    if (e.kind != DepKind::Flow) continue;
    const Node& to = g.node(e.to);
    const bool consumesValue =
        to.isPWrite() ? to.operands[0] == Operand::node(id)
                      : std::any_of(to.operands.begin(), to.operands.end(),
                                    [&](const Operand& o) {
                                      return o == Operand::node(id);
                                    });
    if (!consumesValue) continue;
    if (!to.isPWrite()) return std::nullopt;
    if (writer) return std::nullopt;
    writer = e.to;
  }
  return writer;
}

/// Tie kinds a fresh sort had to break, to show the corpus exercises them.
struct TieCounts {
  unsigned long byConnectivity = 0;  ///< equal attraction, unequal connectivity
  unsigned long byIndex = 0;         ///< equal attraction (> 0) and connectivity
};

/// The attraction cost model, checking every node's cached PE order
/// against a fresh stable sort of its attraction row after the analysis
/// pass fills the table and after every placement.
class CheckedCostModel final : public CostModel {
public:
  void initOrders(const ArchModel& model, RunState& st) const override {
    attractionCostModel().initOrders(model, st);
    check(model, st);
  }

  void onNodePlaced(const ArchModel& model, RunState& st, NodeId id,
                    PEId pe) const override {
    attractionCostModel().onNodePlaced(model, st, id, pe);
    ++placements;
    check(model, st);
  }

  mutable unsigned long placements = 0;
  mutable unsigned long mismatches = 0;
  mutable TieCounts ties;

private:
  void check(const ArchModel& model, const RunState& st) const {
    const unsigned numPEs = st.comp.numPEs();
    std::vector<PEId> fresh(numPEs);
    for (NodeId id = 0; id < st.g.numNodes(); ++id) {
      const std::span<const double> att = st.attractionRow(id);
      std::iota(fresh.begin(), fresh.end(), PEId{0});
      if (st.opts.useAttraction) {
        std::stable_sort(fresh.begin(), fresh.end(), [&](PEId a, PEId b) {
          if (att[a] != att[b]) return att[a] > att[b];
          return model.connectivity[a] > model.connectivity[b];
        });
        for (unsigned i = 1; i < numPEs; ++i) {
          const PEId a = fresh[i - 1];
          const PEId b = fresh[i];
          if (att[a] != att[b]) continue;
          if (model.connectivity[a] != model.connectivity[b])
            ++ties.byConnectivity;
          else if (att[a] > 0.0)
            ++ties.byIndex;
        }
      }
      const std::span<const PEId> cached = st.orderedPEs(id);
      if (!std::equal(cached.begin(), cached.end(), fresh.begin(),
                      fresh.end()) &&
          mismatches++ == 0)
        ADD_FAILURE() << "node " << id << " after " << placements
                      << " placements: cached PE order differs from a "
                         "fresh sort of its attraction row";
    }
  }
};

/// One kernel scheduled by hand through the pass pipeline, the way
/// passes::runPipeline drives it, with `costModel` in place.
struct DrivenRun {
  bool ok = false;
  std::uint64_t fingerprint = 0;
};

DrivenRun driveRun(const Composition& comp, const SchedulerOptions& opts,
                   const Cdfg& g, const CostModel& costModel,
                   const std::function<void(const RunState&)>& afterAnalysis) {
  const auto model = ArchModel::get(comp);
  RunState st(comp, opts, g, nullptr);
  st.limit = opts.maxContexts ? opts.maxContexts : comp.contextMemoryLength();
  st.costModel = &costModel;
  st.priorities = g.validate();
  DrivenRun run;
  try {
    runAnalysisPass(*model, st);
    afterAnalysis(st);
    while (st.scheduledCount < g.numNodes() || st.loopStack.size() > 1) {
      if (st.t >= st.limit) return run;
      tryCloseLoops(*model, st);
      planStep(*model, st);
      ++st.t;
    }
    runFinalizePass(*model, st);
  } catch (const Unmappable&) {
    return run;
  }
  run.ok = true;
  run.fingerprint = st.sched.fingerprint();
  return run;
}

class PassTables : public ::testing::TestWithParam<std::size_t> {
protected:
  /// The parameter's kernel, lowered at unroll 1 and 2.
  std::vector<Cdfg> graphs() const {
    const apps::Workload w = apps::allWorkloads()[GetParam()];
    std::vector<Cdfg> out;
    for (unsigned unroll : {1u, 2u}) {
      const kir::Function fn =
          unroll > 1 ? kir::unrollLoops(w.fn, unroll, true) : w.fn;
      out.push_back(kir::lowerToCdfg(fn).graph);
    }
    return out;
  }
};

TEST_P(PassTables, FusableWritersMatchDerivation) {
  const auto comps = paperCompositions();
  for (const bool fuseWrites : {true, false}) {
    unsigned long fusable = 0;
    for (const Cdfg& g : graphs())
      for (const Composition& comp : comps) {
        SchedulerOptions opts;
        opts.fuseWrites = fuseWrites;
        // Unmappable pairs stop in the analysis pass before the tables.
        driveRun(comp, opts, g, attractionCostModel(),
                 [&](const RunState& st) {
                   ASSERT_EQ(st.fusableWriter.size(), g.numNodes());
                   for (NodeId id = 0; id < g.numNodes(); ++id) {
                     const auto derived =
                         derivedFusablePWrite(g, fuseWrites, id);
                     EXPECT_EQ(fusablePWrite(st, id), derived)
                         << comp.name() << " node " << id;
                     fusable += derived.has_value();
                   }
                 });
      }
    if (fuseWrites) {
      EXPECT_GT(fusable, 0u);
    }
  }
}

TEST_P(PassTables, VarWrittenTableMatchesCdfgScan) {
  const auto comps = paperCompositions();
  unsigned long written = 0;
  for (const Cdfg& g : graphs())
    for (const Composition& comp : comps)
      driveRun(comp, SchedulerOptions{}, g, attractionCostModel(),
               [&](const RunState& st) {
                 ASSERT_EQ(st.varWritten.size(),
                           g.numVariables() * g.numLoops());
                 ASSERT_EQ(st.condSlots.size(), g.numConditions());
                 ASSERT_EQ(st.rawSlots.size(), g.numNodes());
                 for (VarId v = 0; v < g.numVariables(); ++v)
                   for (LoopId l = 0; l < g.numLoops(); ++l) {
                     EXPECT_EQ(st.loopWrites(l, v), g.varWrittenInLoop(v, l))
                         << comp.name() << " variable " << v << " loop "
                         << l;
                     written += st.loopWrites(l, v);
                   }
               });
  EXPECT_GT(written, 0u);
}

TEST_P(PassTables, PEOrderMatchesFreshSortAfterEveryPlacement) {
  const auto comps = paperCompositions();
  for (const Cdfg& g : graphs())
    for (const bool useAttraction : {true, false}) {
      CheckedCostModel checked;
      for (const Composition& comp : comps) {
        SchedulerOptions opts;
        opts.useAttraction = useAttraction;
        const DrivenRun run =
            driveRun(comp, opts, g, checked, [](const RunState&) {});
        // The hand-driven run is the scheduler's run.
        const ScheduleReport r =
            Scheduler(comp, opts).schedule(ScheduleRequest(g));
        ASSERT_EQ(run.ok, r.ok) << comp.name();
        if (r.ok) {
          EXPECT_EQ(run.fingerprint, r.schedule.fingerprint());
        }
      }
      EXPECT_EQ(checked.mismatches, 0u);
      EXPECT_GT(checked.placements, 0u);
      if (useAttraction) {
        EXPECT_GT(checked.ties.byConnectivity, 0u);
        EXPECT_GT(checked.ties.byIndex, 0u);
      }
    }
}

TEST(ArchTables, LinksMatchSourceLists) {
  for (const Composition& comp : paperCompositions()) {
    const Interconnect& ic = comp.interconnect();
    const auto model = ArchModel::get(comp);
    for (PEId to = 0; to < comp.numPEs(); ++to)
      for (PEId from = 0; from < comp.numPEs(); ++from) {
        const bool listed =
            std::ranges::find(ic.sources(to), from) != ic.sources(to).end();
        EXPECT_EQ(ic.hasLink(from, to), listed)
            << comp.name() << " " << from << " -> " << to;
        EXPECT_EQ(model->interconnect().hasLink(from, to), listed);
      }
  }
}

TEST(ArchTables, NextHopWalksReachTheTargetInDistanceHops) {
  unsigned long walks = 0;
  for (const Composition& comp : paperCompositions()) {
    const Interconnect& ic = comp.interconnect();
    for (PEId a = 0; a < comp.numPEs(); ++a)
      for (PEId b = 0; b < comp.numPEs(); ++b) {
        if (ic.distance(a, b) == kUnreachable) continue;
        unsigned hops = 0;
        for (PEId cur = a; cur != b && hops <= comp.numPEs(); ++hops) {
          const PEId next = ic.nextHop(cur, b);
          EXPECT_TRUE(ic.hasLink(cur, next)) << comp.name();
          cur = next;
        }
        EXPECT_EQ(hops, ic.distance(a, b))
            << comp.name() << " " << a << " -> " << b;
        ++walks;
      }
  }
  EXPECT_GT(walks, 0u);
}

/// supports() as the rule states it: NOP, MOVE and CONST on every PE, the
/// DMA ops on PEs with a DMA interface, everything else as `ops()` lists.
bool supportRule(const PEDescriptor& pe, Op op) {
  if (isMemoryOp(op)) return pe.hasDma();
  if (op == Op::NOP || op == Op::MOVE || op == Op::CONST) return true;
  return pe.ops().contains(op);
}

TEST(ArchTables, SupportBitsMatchTheOpMaps) {
  const auto expectRule = [](const PEDescriptor& pe, const std::string& what) {
    for (unsigned i = 0; i < kNumOps; ++i) {
      const Op op = static_cast<Op>(i);
      EXPECT_EQ(pe.supports(op), supportRule(pe, op))
          << what << " " << opName(op);
    }
  };
  for (const Composition& comp : paperCompositions())
    for (PEId p = 0; p < comp.numPEs(); ++p)
      expectRule(comp.pe(p), comp.name() + " PE " + std::to_string(p));

  // Every mutator keeps the bits: removing an ALU op, listing a DMA op on
  // a PE without DMA, and switching the DMA interface on and off.
  PEDescriptor pe = PEDescriptor::fullInteger("alu", 32, /*hasDma=*/false);
  pe.removeOp(Op::IADD);
  pe.removeOp(Op::MOVE);
  pe.addOp(Op::DMA_LOAD);
  expectRule(pe, "edited");
  EXPECT_FALSE(pe.supports(Op::IADD));
  EXPECT_TRUE(pe.supports(Op::MOVE));
  EXPECT_FALSE(pe.supports(Op::DMA_LOAD));
  pe.setHasDma(true);
  expectRule(pe, "dma on");
  EXPECT_TRUE(pe.supports(Op::DMA_STORE));
  pe.setHasDma(false);
  pe.addOp(Op::IADD);
  expectRule(pe, "dma off");
  EXPECT_TRUE(pe.supports(Op::IADD));
}

std::string kernelName(const ::testing::TestParamInfo<std::size_t>& info) {
  return apps::allWorkloads()[info.param].name;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, PassTables,
    ::testing::Range(std::size_t{0}, apps::allWorkloads().size()),
    kernelName);

}  // namespace
}  // namespace cgra::passes
