// Shared plumbing of the perfbench program: command-line options, the run
// report (metrics, correctness tally, informational fields), quantile and
// window statistics, and the machine probes (calibration loop, peak RSS).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "json/json.hpp"

namespace perfbench {

namespace json = cgra::json;
using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double secondsSince(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for the serve_churn disk tier and access logs.
  std::string tmpDir = ".";
  unsigned nproc = 1;
};

/// Number of times each workload repeats its set-up; setup_s is the median.
inline constexpr int kSetupRepeats = 5;

/// How often the timed loops sample the machine's speed (SpeedProbe).
inline constexpr double kProbePeriodS = 0.05;

/// One metric value with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run reports. `check` counts every correctness
/// check as one attempted operation; a failed check counts as failed.
class Report {
public:
  Report();

  void endToEnd(const std::string& name, double value, const std::string& unit);
  /// Sets a per-layer metric. Every per-layer metric exists on every
  /// workload (0 where the workload leaves the layer idle), so the name must
  /// be one of the declared layers.
  void layer(const std::string& name, double value);
  void info(const std::string& name, json::Value value);

  /// An end-to-end timing measured at machine speed `factor` (see
  /// SpeedProbe): reports `raw` scaled to the reference machine (a rate,
  /// unit 1/s, divided by the factor) and keeps `raw` as info raw_<name>.
  void timing(const std::string& name, double raw, const std::string& unit,
              double factor);

  /// Records one checked operation; returns `ok`.
  bool check(bool ok, const std::string& what);
  /// Records `attempted` operations of which `failed` failed.
  void tally(std::uint64_t attempted, std::uint64_t failed,
             const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// {"correct","attempted","failed","metrics","info"} on one line; the
  /// metrics are the end-to-end ones untraced and the per-layer ones traced.
  std::string toJsonLine(bool trace) const;

private:
  std::map<std::string, Metric> endToEnd_;
  std::map<std::string, Metric> layers_;
  json::Object info_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Quantile with linear interpolation between closest ranks (q in [0, 1]).
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double geomean(const std::vector<double>& values);
double mean(const std::vector<double>& values);

/// One timed operation: when it finished (seconds since the timed phase
/// began) and how long it took.
struct Sample {
  double atS = 0.0;
  double ms = 0.0;
};

class SpeedProbe;

/// On a shared machine other tenants slow the benchmark in episodes that
/// last seconds (measured: about 2x for 1-2 s at a time, on a 4-vCPU VM).
/// Timings are therefore read from the steadiest part of a run: the lower
/// quartile over a job's rounds or over a run's time windows (the upper
/// quartile for throughput). An episode moves the figure only when it
/// covers more than three quarters of the run.
inline constexpr double kSteadyShare = 0.25;

/// Splits the timed phase (begun at `start`) into `windows` equal windows
/// and returns, for each requested quantile, the lower quartile over windows
/// of that window's quantile, plus the upper quartile of the per-window
/// throughput (operations/s). `scaled*` are the same figures with each
/// window scaled by the machine speed `probe` measured in it.
struct WindowStats {
  std::vector<double> quantilesMs, scaledQuantilesMs;
  double perSecond = 0.0, scaledPerSecond = 0.0;
  std::size_t samples = 0;
};
WindowStats windowStats(const std::vector<Sample>& samples,
                        Clock::time_point start, double seconds,
                        unsigned windows, const std::vector<double>& qs,
                        const SpeedProbe& probe);

/// End-to-end timings are reported as if measured on a reference machine
/// whose calibration loop takes this long: each is scaled by
/// kReferenceCalibMs / the calibration time measured next to it, and the
/// raw values go to `info`. A shared machine's speed drifts by half over
/// minutes (a second set of ten runs measured every timing 30-60% slower,
/// and the calibration loop 55% slower, than a set run 20 minutes before)
/// and by as much within a run. The value is about the loop's time on the
/// 4-vCPU development VM.
inline constexpr double kReferenceCalibMs = 2.0;

/// Paired calibration: samples the calibration loop on the thread that
/// runs (or waits for) the timed work, next to that work in time, so an
/// operation's time can be scaled by the machine's speed at that moment.
class SpeedProbe {
public:
  /// Takes one sample now.
  void sample();
  /// Takes a sample when at least `periodS` passed since the last one.
  void sampleEvery(double periodS);
  /// kReferenceCalibMs / median of the latest samples (1 before any).
  double factor() const;
  /// kReferenceCalibMs / median of the samples taken in [from, to); the
  /// latest factor when there are none.
  double factorBetween(Clock::time_point from, Clock::time_point to) const;
  /// Lower quartile (kSteadyShare) of every sample, ms.
  double calibMs() const;

private:
  std::vector<std::pair<Clock::time_point, double>> samples_;
};

/// Builds a workload's set-up kSetupRepeats times (once when traced) and
/// reports setup_s, the median, scaled by the probe's samples taken between
/// set-ups. Returns the last set-up.
template <class Make>
auto repeatSetup(const Options& opts, Report& report, SpeedProbe& probe,
                 Make make) {
  std::vector<double> seconds;
  decltype(make()) setup;
  for (int i = 0; i < (opts.trace ? 1 : kSetupRepeats); ++i) {
    setup.reset();
    probe.sample();
    const Clock::time_point t0 = Clock::now();
    setup = make();
    seconds.push_back(secondsSince(t0));
  }
  probe.sample();
  report.timing("setup_s", median(seconds), "s", probe.factor());
  return setup;
}

/// Records the machine: calibration time, core count.
void recordMachine(Report& report, const SpeedProbe& probe,
                   const Options& opts);

/// Peak resident set size of this process, MiB.
double peakRssMb();

/// SHA-256 over the sorted (label, fingerprint) pairs, first 16 hex chars:
/// changes whenever any schedule of the workload changes.
std::string fingerprintDigest(
    std::vector<std::pair<std::string, std::uint64_t>> fingerprints);

/// Per-layer metric names and units, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& layerCatalog();

Report runCompileCold(const Options& opts);
Report runSweep(const Options& opts);
Report runServeHot(const Options& opts);
Report runServeChurn(const Options& opts);

}  // namespace perfbench
