// compile_cold: one thread compiles and runs a seeded draw of (kernel,
// composition, unroll) jobs, one after another — what one user pays per
// `cgra-tool schedule` + `simulate`. Every job starts from KIR (text for the
// suite kernels) and builds its own Composition, so ArchModel builds, key
// hashing, serialization, contexts and simulation are all on the clock.
//
// The timed loop runs the job list in rounds (a fresh seeded order per
// round). A job's time is the lower quartile over its rounds
// (kSteadyShare); the reported quantiles are over jobs.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <iostream>
#include <memory>

#include "artifact/artifact.hpp"
#include "catalog.hpp"
#include "common.hpp"
#include "ctx/contexts.hpp"
#include "kir/lower_cdfg.hpp"
#include "kir/parser.hpp"
#include "kir/passes/pipeline.hpp"
#include "sched/job_key.hpp"
#include "sched/scheduler.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace cgra;

namespace {

constexpr unsigned kRandomKernels = 3;

struct Job {
  const Kernel* kernel = nullptr;
  const Reference* ref = nullptr;
  std::string comp;
  unsigned unroll = 1;
  // The set-up run's results; every timed run must reproduce them.
  std::uint64_t fingerprint = 0;
  unsigned contexts = 0;
  std::uint64_t cycles = 0;
  std::vector<double> rawMs;     ///< untraced op times
  std::vector<double> ms;        ///< the same, scaled by the SpeedProbe
  std::vector<double> tracedMs;  ///< raw

  std::string label() const {
    return kernel->name + "@" + comp + "/u" + std::to_string(unroll);
  }
};

struct Setup {
  std::vector<Kernel> kernels;
  std::deque<Reference> refs;
  std::vector<Job> jobs;
};

/// Self-times of one traced job, ns. `passes` split the schedule span.
struct Spans {
  std::int64_t parse = 0, pipeline = 0, lower = 0, compose = 0, model = 0,
               key = 0, schedule = 0, ctx = 0, serialize = 0, sim = 0, op = 0;
  std::int64_t passes[9] = {};
};

std::int64_t nsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Runs `f`, adding its duration to `acc` when traced.
template <bool kTraced, class F>
auto span(std::int64_t& acc, F&& f) {
  if constexpr (!kTraced) {
    return f();
  } else {
    const Clock::time_point t0 = Clock::now();
    auto result = f();
    acc += nsBetween(t0, Clock::now());
    return result;
  }
}

struct Outcome {
  bool scheduled = false;  ///< the scheduler mapped the job
  bool ok = false;         ///< the simulated run matches the interpreter
  std::uint64_t fingerprint = 0;
  unsigned contexts = 0;
  std::uint64_t cycles = 0;
  std::size_t nodes = 0;
  std::size_t bytes = 0;
  SchedulerMetrics metrics;
};

/// One compile job, KIR to artifact bytes to a simulated run. Returns the
/// op time in ms; `tr` receives the span self-times when traced.
template <bool kTraced>
double compileJob(const Job& job, Outcome& out, Spans& tr) {
  HostMemory heap = job.kernel->heap;
  const Clock::time_point t0 = Clock::now();
  const kir::Function fn = span<kTraced>(tr.parse, [&] {
    return job.kernel->source.empty() ? job.kernel->fn
                                      : kir::parseKernel(job.kernel->source);
  });
  const kir::Function prepared = span<kTraced>(tr.pipeline, [&] {
    kir::FrontendOptions fo;
    fo.unrollFactor = job.unroll;
    return kir::runFrontendPipeline(fn, fo).fn;
  });
  const kir::LoweringResult lowered =
      span<kTraced>(tr.lower, [&] { return kir::lowerToCdfg(prepared); });
  const Composition comp =
      span<kTraced>(tr.compose, [&] { return buildComposition(job.comp); });
  const Scheduler scheduler =
      span<kTraced>(tr.model, [&] { return Scheduler(comp); });
  const std::string key = span<kTraced>(tr.key, [&] {
    return scheduleJobKey(comp, lowered.graph, SchedulerOptions{});
  });
  const ScheduleReport report = span<kTraced>(tr.schedule, [&] {
    return scheduler.schedule(ScheduleRequest(lowered.graph));
  });
  if (!report.ok) return msBetween(t0, Clock::now());
  ContextImages images = span<kTraced>(
      tr.ctx, [&] { return generateContexts(report.schedule, comp); });
  const std::string bytes = span<kTraced>(tr.serialize, [&] {
    artifact::ScheduleArtifact art =
        artifact::ScheduleArtifact::fromReport(key, report);
    art.contexts = std::move(images);
    return art.toJson().dump(0);
  });
  const std::vector<int> v2l = varToLocal(lowered.localToVar);
  const SimResult sim = span<kTraced>(tr.sim, [&] {
    return Simulator(comp, report.schedule)
        .run(liveInsFor(report.schedule, *job.kernel, v2l), heap);
  });
  const Clock::time_point t1 = Clock::now();
  if constexpr (kTraced) {
    tr.op = nsBetween(t0, t1);
    const SchedulerMetrics& m = report.metrics;
    const double passMs[9] = {m.passAnalysisMs,  m.passCandidateMs,
                              m.passCostModelMs, m.passPlacementMs,
                              m.passRoutingMs,   m.passFusingMs,
                              m.passCboxMs,      m.passLoopMs,
                              m.passFinalizeMs};
    for (int i = 0; i < 9; ++i)
      tr.passes[i] = static_cast<std::int64_t>(std::llround(passMs[i] * 1e6));
  }
  out.scheduled = true;
  out.ok = matchesReference(sim, heap, *job.ref, v2l);
  out.fingerprint = report.schedule.fingerprint();
  out.contexts = report.schedule.length;
  out.cycles = sim.runCycles;
  out.nodes = lowered.graph.numNodes();
  out.bytes = bytes.size();
  out.metrics = report.metrics;
  return msBetween(t0, t1);
}

/// Builds the kernels, their interpreter references and the seeded job
/// draw. Every kernel meets every composition; a seeded permutation picks
/// which half of its compositions it meets unrolled by 2, so each seed runs
/// the same amount of unrolled work. Each job runs once here: pairs that do
/// not map (the scheduler or register allocation gives up) are dropped, so
/// the timed loop never fails for capacity; the first run's fingerprint,
/// contexts and cycles are what every timed run must reproduce.
std::unique_ptr<Setup> makeSetup(const Options& opts) {
  auto s = std::make_unique<Setup>();
  for (Kernel& k : suiteKernels(opts.seed))
    s->kernels.push_back(std::move(k));
  for (Kernel& k : appKernels(opts.seed)) s->kernels.push_back(std::move(k));
  for (Kernel& k : randomKernels(opts.seed, kRandomKernels))
    s->kernels.push_back(std::move(k));

  Rng draw(deriveSeed(opts.seed, 0xC01D));
  const std::vector<std::string>& comps = compositionNames();
  for (std::size_t ki = 0; ki < s->kernels.size(); ++ki) {
    const Kernel& k = s->kernels[ki];
    const Reference* refs[2] = {&s->refs.emplace_back(makeReference(k, 1)),
                                &s->refs.emplace_back(makeReference(k, 2))};
    const std::vector<std::size_t> order = permutation(comps.size(), draw);
    for (std::size_t p = 0; p < order.size(); ++p) {
      Job job;
      job.kernel = &k;
      job.unroll = (p + ki) % 2 == 0 ? 1 : 2;
      job.ref = refs[job.unroll - 1];
      job.comp = comps[order[p]];
      Outcome out;
      Spans unused;
      try {
        compileJob<false>(job, out, unused);
      } catch (const std::exception&) {
        continue;
      }
      if (!out.scheduled) continue;
      job.fingerprint = out.ok ? out.fingerprint : 0;  // a mismatch fails
      job.contexts = out.contexts;
      job.cycles = out.cycles;
      s->jobs.push_back(std::move(job));
    }
  }
  return s;
}

constexpr const char* kPassLayers[9] = {
    "sched.pass.analysis_ms",  "sched.pass.candidate_ms",
    "sched.pass.cost_model_ms", "sched.pass.placement_ms",
    "sched.pass.routing_ms",   "sched.pass.fusing_ms",
    "sched.pass.cbox_ms",      "sched.pass.loop_ms",
    "sched.pass.finalize_ms"};

}  // namespace

Report runCompileCold(const Options& opts) {
  Report report;
  SpeedProbe probe;
  const std::unique_ptr<Setup> setup =
      repeatSetup(opts, report, probe, [&] { return makeSetup(opts); });
  std::vector<Job>& jobs = setup->jobs;
  if (!report.check(!jobs.empty(), "compile_cold: no job maps")) return report;

  // Traced-run accumulators (ns totals and per-job count sums).
  Spans sum;
  std::int64_t schedSelf = 0, unattributed = 0;
  double nodes = 0, attempts = 0, rejections = 0, copies = 0, bytes = 0,
         cycles = 0;
  std::uint64_t traced = 0;

  Rng order(deriveSeed(opts.seed, 0x0DE5));
  std::vector<std::size_t> idx(jobs.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  const Clock::time_point start = Clock::now();
  const unsigned minRounds = opts.trace ? 2 : 1;
  unsigned rounds = 0;
  bool done = false;
  while (!done) {
    for (std::size_t i = idx.size(); i > 1; --i)
      std::swap(idx[i - 1], idx[static_cast<std::size_t>(order.range(
                                0, static_cast<std::int64_t>(i) - 1))]);
    // The traced run alternates untraced and traced rounds, so the two
    // halves see the same machine state; the ratio is the tracing overhead.
    const bool tracedRound = opts.trace && rounds % 2 == 1;
    for (std::size_t i : idx) {
      Job& job = jobs[i];
      probe.sampleEvery(kProbePeriodS);
      Outcome out;
      Spans tr;
      double ms = 0.0;
      try {
        ms = tracedRound ? compileJob<true>(job, out, tr)
                         : compileJob<false>(job, out, tr);
      } catch (const std::exception& e) {
        report.check(false, "compile_cold " + job.label() + ": " + e.what());
        continue;
      }
      if (tracedRound) {
        job.tracedMs.push_back(ms);
      } else {
        job.rawMs.push_back(ms);
        job.ms.push_back(ms * probe.factor());
      }
      report.check(out.ok && out.fingerprint == job.fingerprint &&
                       out.cycles == job.cycles,
                   "compile_cold " + job.label() +
                       " differs from the interpreter or set-up run");
      if (tracedRound) {
        std::int64_t passSum = 0;
        for (int p = 0; p < 9; ++p) {
          sum.passes[p] += tr.passes[p];
          passSum += tr.passes[p];
        }
        const std::int64_t self = tr.schedule - passSum;
        const std::int64_t spans = tr.parse + tr.pipeline + tr.lower +
                                   tr.compose + tr.model + tr.key +
                                   tr.schedule + tr.ctx + tr.serialize +
                                   tr.sim;
        // Exact-sum invariant, checked from outside: the nine pass
        // self-times fit inside the schedule span and the spans inside the
        // op, so self-times + unattributed tile the op time exactly.
        report.check(self >= 0 && tr.op - spans >= 0,
                     "compile_cold " + job.label() +
                         ": layer self-times exceed the op time");
        schedSelf += self;
        unattributed += tr.op - spans;
        sum.parse += tr.parse;
        sum.pipeline += tr.pipeline;
        sum.lower += tr.lower;
        sum.compose += tr.compose;
        sum.model += tr.model;
        sum.key += tr.key;
        sum.ctx += tr.ctx;
        sum.serialize += tr.serialize;
        sum.sim += tr.sim;
        sum.op += tr.op;
        nodes += static_cast<double>(out.nodes);
        attempts += static_cast<double>(out.metrics.placementAttempts);
        rejections += static_cast<double>(out.metrics.probeRejections);
        copies += static_cast<double>(out.metrics.copiesInserted);
        bytes += static_cast<double>(out.bytes);
        cycles += static_cast<double>(out.cycles);
        ++traced;
      }
      // Every job runs at least once untraced (and, traced, once traced).
      if (rounds >= minRounds && secondsSince(start) >= opts.seconds) {
        done = true;
        break;
      }
    }
    ++rounds;
    if (rounds >= minRounds && secondsSince(start) >= opts.seconds)
      done = true;
  }
  const double measuredS = secondsSince(start);

  // A job's time is the lower quartile over its rounds (kSteadyShare).
  std::vector<double> jobMs, rawJobMs, tracedJobMs, ctxs, cyc;
  std::vector<std::pair<std::string, std::uint64_t>> fps;
  for (const Job& job : jobs) {
    if (!job.ms.empty()) {
      jobMs.push_back(quantile(job.ms, kSteadyShare));
      rawJobMs.push_back(quantile(job.rawMs, kSteadyShare));
    }
    if (!job.tracedMs.empty())
      tracedJobMs.push_back(quantile(job.tracedMs, kSteadyShare));
    if (!job.kernel->generated) {
      ctxs.push_back(job.contexts);
      cyc.push_back(static_cast<double>(job.cycles));
    }
    fps.emplace_back(job.label(), job.fingerprint);
  }
  const auto perSecond = [](const std::vector<double>& ms) {
    double sumS = 0.0;
    for (double v : ms) sumS += v / 1000.0;
    return static_cast<double>(ms.size()) / sumS;
  };

  report.endToEnd("op_ms_p50", quantile(jobMs, 0.50), "ms");
  report.endToEnd("op_ms_p90", quantile(jobMs, 0.90), "ms");
  report.endToEnd("throughput_per_s", perSecond(jobMs), "1/s");
  report.endToEnd("contexts_geomean", geomean(ctxs), "contexts");
  report.endToEnd("cycles_geomean", geomean(cyc), "cycles");
  report.info("raw_op_ms_p50", quantile(rawJobMs, 0.50));
  report.info("raw_op_ms_p90", quantile(rawJobMs, 0.90));
  report.info("raw_throughput_per_s", perSecond(rawJobMs));
  report.info("compile_ms_p50", quantile(rawJobMs, 0.50));
  report.info("compile_ms_p99", quantile(rawJobMs, 0.99));
  std::vector<std::pair<double, std::string>> slowest;
  for (const Job& job : jobs)
    if (!job.rawMs.empty())
      slowest.emplace_back(quantile(job.rawMs, kSteadyShare), job.label());
  std::sort(slowest.rbegin(), slowest.rend());
  json::Object tail;
  for (std::size_t i = 0; i < slowest.size() && i < 5; ++i)
    tail[slowest[i].second] = slowest[i].first;
  report.info("slowest_jobs_ms", json::Value(std::move(tail)));
  report.info("jobs", static_cast<std::int64_t>(jobs.size()));
  report.info("rounds", static_cast<std::int64_t>(rounds));
  report.info("measured_s", measuredS);
  report.info("schedule_digest", fingerprintDigest(fps));
  recordMachine(report, probe, opts);

  if (opts.trace && traced > 0) {
    const double n = static_cast<double>(traced);
    auto ms = [n](std::int64_t ns) { return static_cast<double>(ns) / 1e6 / n; };
    report.layer("kir.parse_ms", ms(sum.parse));
    report.layer("kir.pipeline_ms", ms(sum.pipeline));
    report.layer("kir.lower_ms", ms(sum.lower));
    report.layer("arch.compose_ms", ms(sum.compose));
    report.layer("arch.model_ms", ms(sum.model));
    report.layer("sched.key_ms", ms(sum.key));
    report.layer("sched.schedule_ms", ms(schedSelf));
    for (int p = 0; p < 9; ++p) report.layer(kPassLayers[p], ms(sum.passes[p]));
    report.layer("ctx.generate_ms", ms(sum.ctx));
    report.layer("artifact.serialize_ms", ms(sum.serialize));
    report.layer("sim.run_ms", ms(sum.sim));
    report.layer("unattributed_ms", ms(unattributed));
    report.layer("kir.cdfg_nodes", nodes / n);
    report.layer("sched.placement_attempts", attempts / n);
    report.layer("sched.probe_rejections", rejections / n);
    report.layer("sched.probe_accept_ratio",
                 attempts > 0 ? (attempts - rejections) / attempts : 0.0);
    report.layer("sched.copies_inserted", copies / n);
    report.layer("artifact.bytes", bytes / n);
    report.layer("sim.cycles", cycles / n);
    report.layer("trace.ops", n);
    report.layer("trace.overhead_ratio",
                 quantile(tracedJobMs, 0.5) / quantile(rawJobMs, 0.5));
    report.info("op_ms_mean_traced", ms(sum.op));
  }
  return report;
}

}  // namespace perfbench
