// Shared helpers for the table/figure reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper's
// evaluation (§VI) with the same rows/series layout; EXPERIMENTS.md records
// paper-vs-measured. The evaluation setup follows the paper: ADPCM decoder,
// 416-sample input vector, maximum unroll factor of 2 for inner loops,
// RF size 128, context size 256.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <utility>

#include "apps/kernels.hpp"
#include "arch/factory.hpp"
#include "arch/resource_model.hpp"
#include "ctx/contexts.hpp"
#include "host/token_machine.hpp"
#include "json/json.hpp"
#include "kir/lower_bytecode.hpp"
#include "kir/lower_cdfg.hpp"
#include "kir/passes/unroll_pass.hpp"
#include "sched/scheduler.hpp"
#include "sim/report.hpp"
#include "sim/simulator.hpp"
#include "support/clock.hpp"
#include "support/table.hpp"

namespace cgra::bench {

/// True when CGRA_BENCH_COUNTERS is set: benches then simulate with the
/// hardware-counter model on and attach the counters to their JSON artifact.
inline bool countersEnabled() {
  const char* v = std::getenv("CGRA_BENCH_COUNTERS");
  return v != nullptr && *v != '\0' && std::string(v) != "0";
}

/// Directory receiving BENCH_<name>.json (CGRA_BENCH_DIR, default cwd).
inline std::string outputDir() {
  const char* v = std::getenv("CGRA_BENCH_DIR");
  return (v != nullptr && *v != '\0') ? v : ".";
}

/// Git revision recorded in the artifact: CGRA_GIT_REV env override first
/// (CI sets it on checkouts without .git), then the compile-time stamp.
inline std::string gitRev() {
  if (const char* v = std::getenv("CGRA_GIT_REV"); v != nullptr && *v != '\0')
    return v;
#ifdef CGRA_GIT_REV
  return CGRA_GIT_REV;
#else
  return "unknown";
#endif
}

/// Machine-readable bench artifact, schema "cgra-bench-v1":
///
///   { "schema": "cgra-bench-v1", "name": ..., "gitRev": ..., "wallMs": ...,
///     "metrics":  { ... },   // deterministic, lower-is-better; the
///                            // regression checker gates these at 10%
///     "timings":  { ... },   // wall-clock milliseconds; warn-only, so CI
///                            // does not flake on machine speed
///     "info":     { ... },   // strings, never compared
///     "counters": { ... } }  // per-series SimCounters (CGRA_BENCH_COUNTERS)
///
/// Every bench binary constructs one, records its table values as it prints
/// them, and calls write() last — tools/bench_compare.py consumes the files.
class BenchReport {
public:
  explicit BenchReport(std::string name)
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

  void metric(const std::string& key, double value) { metrics_[key] = value; }
  void metric(const std::string& key, std::uint64_t value) {
    metrics_[key] = value;
  }
  void metric(const std::string& key, unsigned value) {
    metrics_[key] = static_cast<std::uint64_t>(value);
  }
  void timing(const std::string& key, double ms) { timings_[key] = ms; }
  void info(const std::string& key, std::string value) {
    info_[key] = std::move(value);
  }
  void counters(const std::string& key, json::Value value) {
    counters_[key] = std::move(value);
  }

  /// Writes BENCH_<name>.json, creating the output directory first, and
  /// announces the path on stdout. A failed write is one line on stderr
  /// and exit status 1.
  void write() {
    json::Object o;
    o["schema"] = "cgra-bench-v1";
    o["name"] = name_;
    o["gitRev"] = gitRev();
    o["wallMs"] = msSince(start_);
    o["metrics"] = std::move(metrics_);
    o["timings"] = std::move(timings_);
    o["info"] = std::move(info_);
    if (!counters_.empty()) o["counters"] = std::move(counters_);
    const std::string dir = outputDir();
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    try {
      std::filesystem::create_directories(dir);
      json::writeFile(path, json::sortKeys(json::Value(std::move(o))));
    } catch (const std::exception& e) {
      std::cerr << "bench " << name_ << ": " << e.what() << "\n";
      std::exit(1);
    }
    std::cout << "wrote " << path << "\n";
  }

private:
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  json::Object metrics_;
  json::Object timings_;
  json::Object info_;
  json::Object counters_;
};

inline constexpr unsigned kAdpcmSamples = 416;  // paper §VI-B
inline constexpr unsigned kUnrollFactor = 2;    // paper §VI-B

/// The evaluation kernel, unrolled and lowered once.
struct AdpcmSetup {
  apps::Workload workload;
  kir::Function unrolled;
  Cdfg graph;

  static AdpcmSetup make() {
    AdpcmSetup s;
    s.workload = apps::makeAdpcm(kAdpcmSamples, /*seed=*/1);
    s.unrolled = kir::unrollLoops(s.workload.fn, kUnrollFactor,
                                  /*innermostOnly=*/true);
    s.graph = kir::lowerToCdfg(s.unrolled).graph;
    return s;
  }
};

/// One composition's measured results for the ADPCM kernel.
struct AdpcmRun {
  unsigned contexts = 0;
  unsigned maxRfEntries = 0;
  std::uint64_t cycles = 0;
  double schedulingMs = 0.0;
  double contextGenMs = 0.0;  ///< generateContexts wall time (§VI-C)
  double energy = 0.0;
  ResourceEstimate resources;
  /// Combined static+runtime report; report.counters engaged when the bench
  /// ran under CGRA_BENCH_COUNTERS.
  Report report;
};

inline AdpcmRun runAdpcmOn(const AdpcmSetup& setup, const Composition& comp,
                           const SchedulerOptions& opts = {}) {
  AdpcmRun out;
  const Scheduler scheduler(comp, opts);
  const ScheduleReport result = scheduler.schedule(ScheduleRequest(setup.graph)).orThrow();
  const auto ctxStart = std::chrono::steady_clock::now();
  const ContextImages images = generateContexts(result.schedule, comp);
  out.contextGenMs = msSince(ctxStart);

  out.contexts = result.schedule.length;
  for (unsigned n : images.physRegsUsed)
    out.maxRfEntries = std::max(out.maxRfEntries, n);
  out.schedulingMs = result.metrics.totalMs;
  out.resources = estimateResources(comp);

  std::map<VarId, std::int32_t> liveIns;
  for (const LiveBinding& lb : result.schedule.liveIns)
    liveIns[lb.var] = setup.workload.initialLocals[lb.var];
  HostMemory heap = setup.workload.heap;
  const Simulator sim(comp, result.schedule);
  SimOptions simOpts;
  simOpts.collectCounters = countersEnabled();
  const SimResult simResult = sim.run(liveIns, heap, simOpts);
  out.cycles = simResult.runCycles;
  out.energy = simResult.energy;
  out.report = makeReport(result.schedule, comp, &result.metrics, &simResult);
  return out;
}

/// Cycle count of the AMIDAR-like baseline on the same kernel.
inline std::uint64_t baselineCycles(const AdpcmSetup& setup) {
  const BytecodeFunction bc = kir::lowerToBytecode(setup.workload.fn);
  HostMemory heap = setup.workload.heap;
  const TokenMachine machine;
  return machine.run(bc, setup.workload.initialLocals, heap).cycles;
}

}  // namespace cgra::bench
