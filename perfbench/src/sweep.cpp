// sweep: repeated runSweep calls over one fixed batch of distinct jobs —
// the regime of `cgra-tool sweep`, `explore` and the table benches. Graphs
// and compositions are built once in set-up, so ArchModels are shared and
// warm and the scheduler passes plus the sweep engine's pool do the work.
#include <algorithm>
#include <deque>
#include <memory>

#include "apps/kernels.hpp"
#include "catalog.hpp"
#include "common.hpp"
#include "sched/sweep.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace cgra;

namespace {

constexpr unsigned kUnroll = 2;
constexpr unsigned kRandomKernels = 2;

struct Setup {
  std::vector<Kernel> kernels;
  std::deque<Reference> refs;
  std::deque<Composition> comps;
  std::vector<SweepJob> jobs;
  std::vector<std::uint64_t> fingerprints;  ///< one-thread reference sweep
  std::vector<double> contexts, cycles, nodes;
  std::vector<double> referenceMs;  ///< scheduler time in the reference sweep
};

std::unique_ptr<Setup> makeSetup(const Options& opts, std::uint64_t& failed) {
  auto s = std::make_unique<Setup>();
  // The larger kernels: ADPCM (mono and stereo), sobel, matmul, the suite
  // and generated kernels.
  for (Kernel& k : appKernels(opts.seed))
    if (k.name == "adpcm" || k.name == "adpcm_stereo" || k.name == "sobel" ||
        k.name == "matmul")
      s->kernels.push_back(std::move(k));
  for (Kernel& k : suiteKernels(opts.seed))
    s->kernels.push_back(std::move(k));
  for (Kernel& k : randomKernels(deriveSeed(opts.seed, 0x5EE9),
                                 kRandomKernels))
    s->kernels.push_back(std::move(k));

  std::map<std::string, const Composition*> byName;
  for (const std::string& name : compositionNames())
    byName[name] = &s->comps.emplace_back(buildComposition(name));

  // Every kernel meets every composition: a seeded pairing would let the
  // seed decide which big kernels meet which big compositions, and with
  // it the batch's cost.
  std::vector<SweepJob> candidates;
  std::vector<std::pair<const Kernel*, const Reference*>> owners;
  for (const Kernel& k : s->kernels) {
    const Reference& ref = s->refs.emplace_back(makeReference(k, kUnroll));
    for (const std::string& comp : compositionNames()) {
      SweepJob job;
      job.comp = byName.at(comp);
      job.graph = &ref.graph;
      job.label = k.name + "@" + comp;
      candidates.push_back(job);
      owners.emplace_back(&k, &ref);
    }
  }
  // One-thread reference sweep: keeps the jobs that map, records their
  // fingerprints, and proves each schedule against the interpreter.
  SweepOptions serial;
  serial.threads = 1;
  const SweepReport ref = runSweep(candidates, serial);
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const SweepJobResult& r = ref.results[i];
    if (!r.ok) continue;
    const std::uint64_t cycles = simulateChecked(
        *candidates[i].comp, r.schedule, *owners[i].first, *owners[i].second);
    if (cycles == 0) ++failed;
    s->jobs.push_back(candidates[i]);
    s->fingerprints.push_back(r.fingerprint);
    if (!owners[i].first->generated) {
      s->contexts.push_back(r.schedule.length);
      s->cycles.push_back(static_cast<double>(cycles));
    }
    s->nodes.push_back(static_cast<double>(candidates[i].graph->numNodes()));
    s->referenceMs.push_back(r.metrics.totalMs);
  }
  return s;
}

}  // namespace

Report runSweep(const Options& opts) {
  Report report;
  SpeedProbe probe;
  std::uint64_t setupFailures = 0;
  const std::unique_ptr<Setup> setup = repeatSetup(opts, report, probe, [&] {
    setupFailures = 0;
    return makeSetup(opts, setupFailures);
  });
  report.tally(setup->jobs.size(), setupFailures,
               "sweep reference schedules checked against the interpreter");
  if (!report.check(!setup->jobs.empty(), "sweep: no job maps")) return report;

  SweepOptions options;
  // Half the cores: a call waits for its slowest thread, and on a shared
  // machine every extra thread is another chance of a stalled one.
  options.threads = std::max(1u, opts.nproc / 2);
  options.keepSchedules = false;
  const std::vector<SweepJob>& jobs = setup->jobs;

  std::vector<Sample> untraced, traced;
  double passes[9] = {}, schedSelf = 0, attempts = 0, rejections = 0,
         copies = 0, effSum = 0, maxSum = 0;
  std::uint64_t tracedJobs = 0, tracedCalls = 0, archBuilds = 0;
  const Clock::time_point start = Clock::now();
  for (std::uint64_t call = 0;; ++call) {
    const bool tracedCall = opts.trace && call % 2 == 1;
    probe.sampleEvery(kProbePeriodS);
    const Clock::time_point t0 = Clock::now();
    const SweepReport r = runSweep(jobs, options);
    const Clock::time_point t1 = Clock::now();
    const double wallMs = msBetween(t0, t1);
    (tracedCall ? traced : untraced)
        .push_back({std::chrono::duration<double>(t1 - start).count(), wallMs});
    for (std::size_t i = 0; i < jobs.size(); ++i)
      report.check(r.results[i].ok &&
                       r.results[i].fingerprint == setup->fingerprints[i],
                   "sweep " + jobs[i].label +
                       " differs from the one-thread reference");
    if (tracedCall) {
      double jobSum = 0, jobMax = 0;
      for (const SweepJobResult& j : r.results) {
        const SchedulerMetrics& m = j.metrics;
        const double p[9] = {m.passAnalysisMs,  m.passCandidateMs,
                             m.passCostModelMs, m.passPlacementMs,
                             m.passRoutingMs,   m.passFusingMs,
                             m.passCboxMs,      m.passLoopMs,
                             m.passFinalizeMs};
        double passSum = 0;
        for (int k = 0; k < 9; ++k) {
          passes[k] += p[k];
          passSum += p[k];
        }
        schedSelf += std::max(0.0, m.totalMs - passSum);
        attempts += static_cast<double>(m.placementAttempts);
        rejections += static_cast<double>(m.probeRejections);
        copies += static_cast<double>(m.copiesInserted);
        jobSum += m.totalMs;
        jobMax = std::max(jobMax, m.totalMs);
        ++tracedJobs;
      }
      effSum += jobSum / (static_cast<double>(r.threadsUsed) * wallMs);
      maxSum += jobMax;
      archBuilds += r.archModelBuilds;
      ++tracedCalls;
    }
    if (secondsSince(start) >= opts.seconds && (!opts.trace || call >= 1))
      break;
  }
  const double measuredS = secondsSince(start);

  constexpr unsigned kWindows = 10;
  const WindowStats ws = windowStats(untraced, start, measuredS, kWindows,
                                     {0.5, 0.9, 0.99}, probe);
  std::vector<std::pair<std::string, std::uint64_t>> fps;
  for (std::size_t i = 0; i < jobs.size(); ++i)
    fps.emplace_back(jobs[i].label, setup->fingerprints[i]);

  const double jobsPerCall = static_cast<double>(jobs.size());
  const double jobsPerS = ws.perSecond * jobsPerCall;
  report.endToEnd("op_ms_p50", ws.scaledQuantilesMs[0], "ms");
  report.endToEnd("op_ms_p90", ws.scaledQuantilesMs[1], "ms");
  report.endToEnd("throughput_per_s", ws.scaledPerSecond * jobsPerCall, "1/s");
  report.info("raw_op_ms_p50", ws.quantilesMs[0]);
  report.info("raw_op_ms_p90", ws.quantilesMs[1]);
  report.info("sweep_ms_p99", ws.quantilesMs[2]);
  report.info("raw_throughput_per_s", jobsPerS);
  report.endToEnd("contexts_geomean", geomean(setup->contexts), "contexts");
  report.endToEnd("cycles_geomean", geomean(setup->cycles), "cycles");
  report.info("sweep_jobs_per_s", jobsPerS);
  report.info("sweep_ms_p90", ws.quantilesMs[1]);
  std::vector<std::pair<double, std::string>> slowest;
  for (std::size_t i = 0; i < jobs.size(); ++i)
    slowest.emplace_back(setup->referenceMs[i], jobs[i].label);
  std::sort(slowest.rbegin(), slowest.rend());
  json::Object tail;
  for (std::size_t i = 0; i < slowest.size() && i < 5; ++i)
    tail[slowest[i].second] = slowest[i].first;
  report.info("slowest_jobs_ms", json::Value(std::move(tail)));
  report.info("jobs_per_call", static_cast<std::int64_t>(jobs.size()));
  report.info("calls", static_cast<std::int64_t>(ws.samples));
  report.info("threads", static_cast<std::int64_t>(options.threads));
  report.info("measured_s", measuredS);
  report.info("schedule_digest", fingerprintDigest(fps));
  recordMachine(report, probe, opts);

  if (opts.trace && tracedJobs > 0) {
    static const char* kPassLayers[9] = {
        "sched.pass.analysis_ms",  "sched.pass.candidate_ms",
        "sched.pass.cost_model_ms", "sched.pass.placement_ms",
        "sched.pass.routing_ms",   "sched.pass.fusing_ms",
        "sched.pass.cbox_ms",      "sched.pass.loop_ms",
        "sched.pass.finalize_ms"};
    const double n = static_cast<double>(tracedJobs);
    for (int k = 0; k < 9; ++k) report.layer(kPassLayers[k], passes[k] / n);
    report.layer("sched.schedule_ms", schedSelf / n);
    report.layer("sched.placement_attempts", attempts / n);
    report.layer("sched.probe_rejections", rejections / n);
    report.layer("sched.probe_accept_ratio",
                 attempts > 0 ? (attempts - rejections) / attempts : 0.0);
    report.layer("sched.copies_inserted", copies / n);
    report.layer("kir.cdfg_nodes", mean(setup->nodes));
    const double calls = static_cast<double>(tracedCalls);
    report.layer("sweep.parallel_eff", effSum / calls);
    report.layer("sweep.job_ms_max", maxSum / calls);
    report.layer("sweep.arch_builds", static_cast<double>(archBuilds));
    report.layer("trace.ops", calls);
    std::vector<double> u, t;
    for (const Sample& s : untraced) u.push_back(s.ms);
    for (const Sample& s : traced) t.push_back(s.ms);
    report.layer("trace.overhead_ratio", median(t) / median(u));
  }
  return report;
}

}  // namespace perfbench
