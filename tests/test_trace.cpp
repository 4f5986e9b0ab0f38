// Tests for the scheduler decision-trace layer: determinism across sweep
// thread counts, Chrome trace-event JSON schema conformance, golden
// `explain` output for unmappable kernels (typed rejection reasons), ring
// overflow behavior, and the request/report API around it (trace is null
// when disabled, tracing never perturbs the schedule, request options
// inherit from the Scheduler's constructor).
#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "apps/kernels.hpp"
#include "arch/factory.hpp"
#include "kir/lower_cdfg.hpp"
#include "sched/scheduler.hpp"
#include "sched/sweep.hpp"

namespace cgra {
namespace {

Cdfg lowerWorkload(const apps::Workload& w) {
  return kir::lowerToCdfg(w.fn).graph;
}

ScheduleReport traced(const Composition& comp, const Cdfg& graph,
                      std::size_t capacity = 1u << 16) {
  ScheduleRequest request(graph);
  request.trace.enabled = true;
  request.trace.capacity = capacity;
  return Scheduler(comp).schedule(request);
}

/// A composition whose PEs cannot multiply (forces UnsupportedOp).
Composition makeNoMul() {
  Composition base = makeMesh(4);
  std::vector<PEDescriptor> pes;
  for (PEId p = 0; p < 4; ++p) {
    PEDescriptor pe = base.pe(p);
    pe.removeOp(Op::IMUL);
    pes.push_back(std::move(pe));
  }
  return Composition("noMul", std::move(pes), base.interconnect(), 256, 32);
}

TEST(Trace, DisabledRequestYieldsNullTraceAndIdenticalSchedule) {
  const Composition comp = makeMesh(9);
  const Cdfg graph = lowerWorkload(apps::makeAdpcm(8, 1));

  const ScheduleReport plain =
      Scheduler(comp).schedule(ScheduleRequest(graph));
  ASSERT_TRUE(plain.ok);
  EXPECT_EQ(plain.trace, nullptr);

  const ScheduleReport withTrace = traced(comp, graph);
  ASSERT_TRUE(withTrace.ok);
  ASSERT_NE(withTrace.trace, nullptr);
  EXPECT_GT(withTrace.trace->totalEmitted(), 0u);

  // Observability must never perturb the decision sequence.
  EXPECT_EQ(plain.schedule.fingerprint(), withTrace.schedule.fingerprint());
}

TEST(Trace, RecordsPlacementsCopiesAndPhases) {
  const Composition comp = makeMesh(4);
  const Cdfg graph = lowerWorkload(apps::makeAdpcm(8, 1));
  const ScheduleReport report = traced(comp, graph);
  ASSERT_TRUE(report.ok);

  std::size_t placed = 0, fused = 0, phases = 0, copies = 0;
  for (std::size_t i = 0; i < report.trace->size(); ++i) {
    const TraceEvent& e = report.trace->event(i);
    if (e.kind == TraceEventKind::NodePlaced) ++placed;
    if (e.kind == TraceEventKind::WriteFused) ++fused;
    if (e.kind == TraceEventKind::PhaseBegin) ++phases;
    if (e.kind == TraceEventKind::CopyInserted) ++copies;
  }
  // Every scheduled node is either an explicit placement or a pWRITE fused
  // into its producer (§V-E).
  EXPECT_EQ(placed + fused,
            static_cast<std::size_t>(report.metrics.nodesScheduled));
  EXPECT_EQ(fused, static_cast<std::size_t>(report.metrics.fusedWrites));
  EXPECT_EQ(phases, 3u);  // setup, plan, finalize
  // The trace keeps events from rolled-back probes (the transactional-probe
  // contract lets a failed probe touch only rejection bookkeeping and the
  // trace), so CopyInserted events bound the committed copies from above.
  EXPECT_GE(copies, static_cast<std::size_t>(report.metrics.copiesInserted));
  std::size_t committedCopies = 0;
  for (const ScheduledOp& op : report.schedule.ops)
    if (op.node == kNoNode && op.op == Op::MOVE) ++committedCopies;
  EXPECT_EQ(committedCopies,
            static_cast<std::size_t>(report.metrics.copiesInserted));
}

TEST(Trace, RingOverflowKeepsMostRecentEvents) {
  const Composition comp = makeMesh(9);
  const Cdfg graph = lowerWorkload(apps::makeAdpcm(8, 1));
  const ScheduleReport report = traced(comp, graph, /*capacity=*/16);
  ASSERT_TRUE(report.ok);
  ASSERT_NE(report.trace, nullptr);

  EXPECT_EQ(report.trace->size(), 16u);
  EXPECT_GT(report.trace->totalEmitted(), 16u);
  EXPECT_EQ(report.trace->droppedEvents(),
            report.trace->totalEmitted() - 16u);
  // Retained events are the tail of the run, in emission order.
  for (std::size_t i = 1; i < report.trace->size(); ++i)
    EXPECT_LT(report.trace->event(i - 1).seq, report.trace->event(i).seq);
  EXPECT_EQ(report.trace->event(15).seq, report.trace->totalEmitted() - 1);

  const std::string text = report.trace->explain(&graph, &comp);
  EXPECT_NE(text.find("dropped"), std::string::npos);
}

TEST(Trace, ExplainNamesRejectionReasonForUnsupportedOp) {
  const Composition noMul = makeNoMul();
  const Cdfg graph = lowerWorkload(apps::makeDotProduct(4, 1));
  const ScheduleReport report = traced(noMul, graph);
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.failure.reason, FailureReason::UnsupportedOp);
  ASSERT_NE(report.trace, nullptr);

  const std::string text = report.trace->explain(&graph, &noMul);
  EXPECT_NE(text.find("composition: noMul"), std::string::npos);
  EXPECT_NE(text.find("FAILED: unsupported-op"), std::string::npos);
  EXPECT_NE(text.find("IMUL"), std::string::npos);
}

TEST(Trace, ExplainNamesFinalFailingNodeOnBudgetExhaustion) {
  const Composition comp = makeMesh(4);
  const Cdfg graph = lowerWorkload(apps::makeGcd(4, 6));
  SchedulerOptions tight;
  tight.maxContexts = 4;
  ScheduleRequest request(graph);
  request.trace.enabled = true;
  const ScheduleReport report = Scheduler(comp, tight).schedule(request);
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.failure.reason, FailureReason::ContextBudget);

  const std::string text = report.trace->explain(&graph, &comp);
  EXPECT_NE(text.find("FAILED: context-budget"), std::string::npos);
  EXPECT_NE(text.find("final failing node"), std::string::npos);
  // The decision log names per-PE rejection reasons along the way.
  EXPECT_NE(text.find("reject"), std::string::npos);

  // The report's failing node matches the trace's Failure event.
  bool sawFailure = false;
  for (std::size_t i = 0; i < report.trace->size(); ++i) {
    const TraceEvent& e = report.trace->event(i);
    if (e.kind != TraceEventKind::Failure) continue;
    sawFailure = true;
    EXPECT_EQ(e.node, static_cast<std::int32_t>(report.failure.node));
  }
  EXPECT_TRUE(sawFailure);
}

// --- Chrome trace-event JSON schema -------------------------------------

void validateChromeTraceSchema(const json::Value& v) {
  ASSERT_TRUE(v.isObject());
  const json::Object& top = v.asObject();
  ASSERT_TRUE(top.contains("traceEvents"));
  ASSERT_TRUE(top.contains("otherData"));
  const json::Object& other = top.at("otherData").asObject();
  EXPECT_TRUE(other.contains("label"));
  EXPECT_TRUE(other.contains("eventsEmitted"));
  EXPECT_TRUE(other.contains("eventsDropped"));

  const json::Array& events = top.at("traceEvents").asArray();
  ASSERT_FALSE(events.empty());
  static const std::set<std::string> kPhases = {"B", "E", "i", "M"};
  std::int64_t lastTs = -1;
  int beginDepth = 0;
  for (const json::Value& ev : events) {
    ASSERT_TRUE(ev.isObject());
    const json::Object& o = ev.asObject();
    ASSERT_TRUE(o.contains("name"));
    ASSERT_TRUE(o.contains("ph"));
    ASSERT_TRUE(o.contains("pid"));
    ASSERT_TRUE(o.contains("tid"));
    const std::string& ph = o.at("ph").asString();
    EXPECT_TRUE(kPhases.contains(ph)) << ph;
    if (ph == "M") continue;  // metadata events carry no timestamp
    ASSERT_TRUE(o.contains("ts"));
    // Logical timestamps are monotone non-decreasing (they are sequence
    // numbers), which Perfetto requires within a track.
    EXPECT_GE(o.at("ts").asInt(), lastTs);
    lastTs = o.at("ts").asInt();
    if (ph == "B") ++beginDepth;
    if (ph == "E") --beginDepth;
    EXPECT_GE(beginDepth, 0);  // E never precedes its B
    if (ph == "i") {
      EXPECT_EQ(o.at("s").asString(), "t");
    }
  }
  EXPECT_EQ(beginDepth, 0);  // every B span is closed
}

TEST(Trace, ChromeJsonMatchesSchemaForSuccessAndFailure) {
  const Composition mesh = makeMesh(9);
  const Cdfg adpcm = lowerWorkload(apps::makeAdpcm(8, 1));
  const ScheduleReport ok = traced(mesh, adpcm);
  ASSERT_TRUE(ok.ok);
  validateChromeTraceSchema(ok.trace->toChromeJson("adpcm@mesh9"));

  const Composition noMul = makeNoMul();
  const Cdfg dot = lowerWorkload(apps::makeDotProduct(4, 1));
  const ScheduleReport bad = traced(noMul, dot);
  ASSERT_FALSE(bad.ok);
  validateChromeTraceSchema(bad.trace->toChromeJson("dot@noMul"));
}

// --- Sweep integration ---------------------------------------------------

struct SweepSetup {
  std::vector<Composition> comps;
  std::vector<std::pair<std::string, Cdfg>> graphs;
  std::vector<SweepJob> jobs;

  static SweepSetup make() {
    SweepSetup s;
    s.comps.push_back(makeMesh(4));
    s.comps.push_back(makeMesh(9));
    s.graphs.emplace_back("adpcm", lowerWorkload(apps::makeAdpcm(8, 1)));
    s.graphs.emplace_back("gcd", lowerWorkload(apps::makeGcd(4, 6)));
    for (const Composition& comp : s.comps)
      for (const auto& [name, graph] : s.graphs)
        s.jobs.push_back(SweepJob{&comp, &graph, name + "@" + comp.name(),
                                  SchedulerOptions{}});
    return s;
  }
};

TEST(Trace, SweepTracesAreByteIdenticalAcrossThreadCounts) {
  const SweepSetup s = SweepSetup::make();

  std::vector<std::vector<std::string>> dumps;
  for (unsigned threads : {1u, 2u, 8u}) {
    SweepOptions opts;
    opts.threads = threads;
    opts.keepSchedules = false;
    opts.trace.enabled = true;
    const SweepReport report = runSweep(s.jobs, opts);
    ASSERT_EQ(report.failures, 0u);
    std::vector<std::string> d;
    for (const SweepJobResult& r : report.results) {
      ASSERT_NE(r.trace, nullptr) << r.label;
      d.push_back(r.trace->toChromeJson(r.label).dump());
    }
    dumps.push_back(std::move(d));
  }
  for (std::size_t t = 1; t < dumps.size(); ++t) {
    ASSERT_EQ(dumps[t].size(), dumps[0].size());
    for (std::size_t i = 0; i < dumps[0].size(); ++i)
      EXPECT_EQ(dumps[t][i], dumps[0][i])
          << "trace of job " << i << " differs between threads=1 and a "
          << "multi-threaded sweep";
  }
}

TEST(Trace, SweepTraceDirWritesOneValidFilePerJob) {
  const SweepSetup s = SweepSetup::make();
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "cgra_trace_test_dir";
  std::filesystem::remove_all(dir);

  SweepOptions opts;
  opts.threads = 2;
  opts.keepSchedules = false;
  opts.traceDir = dir.string();  // implies trace.enabled
  const SweepReport report = runSweep(s.jobs, opts);
  ASSERT_EQ(report.failures, 0u);

  for (const SweepJobResult& r : report.results) {
    std::string stem = r.label;
    for (char& c : stem)
      if (c == '@') c = '_';
    const std::filesystem::path file = dir / (stem + ".trace.json");
    ASSERT_TRUE(std::filesystem::exists(file)) << file;
    validateChromeTraceSchema(json::parseFile(file.string()));
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cgra
