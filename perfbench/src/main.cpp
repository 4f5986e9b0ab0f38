// perfbench: the repository's performance benchmark.
//
//   perfbench --workload compile_cold|sweep|serve_hot|serve_churn
//             --seed N --seconds S --trace 0|1 [--tmp DIR]
//
// Run from the root of a checkout (the suite kernels are read from
// examples/kernels/).
//
// Runs one workload against the library's public API for S seconds and
// prints one JSON line: {"correct", "attempted", "failed", "metrics",
// "info"}. perfbench/run.py builds this binary and wraps the line into the
// benchmark's result format; perfbench/README.md documents the workloads
// and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <thread>
#include <unordered_map>

#include "common.hpp"
#include "support/sha256.hpp"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& layerCatalog() {
  static const std::vector<std::pair<std::string, std::string>> kLayers = {
      {"kir.parse_ms", "ms"},
      {"kir.pipeline_ms", "ms"},
      {"kir.lower_ms", "ms"},
      {"arch.compose_ms", "ms"},
      {"arch.model_ms", "ms"},
      {"sched.key_ms", "ms"},
      {"sched.schedule_ms", "ms"},
      {"sched.pass.analysis_ms", "ms"},
      {"sched.pass.candidate_ms", "ms"},
      {"sched.pass.cost_model_ms", "ms"},
      {"sched.pass.placement_ms", "ms"},
      {"sched.pass.routing_ms", "ms"},
      {"sched.pass.fusing_ms", "ms"},
      {"sched.pass.cbox_ms", "ms"},
      {"sched.pass.loop_ms", "ms"},
      {"sched.pass.finalize_ms", "ms"},
      {"ctx.generate_ms", "ms"},
      {"artifact.serialize_ms", "ms"},
      {"sim.run_ms", "ms"},
      {"unattributed_ms", "ms"},
      {"sweep.parallel_eff", "ratio"},
      {"sweep.job_ms_max", "ms"},
      {"sweep.arch_builds", "count"},
      {"service.admit_us", "us"},
      {"service.queue_us", "us"},
      {"service.store_us", "us"},
      {"service.schedule_us", "us"},
      {"service.serialize_us", "us"},
      {"service.write_us", "us"},
      {"service.resolve_us", "us"},
      {"client.wire_us", "us"},
      {"kir.cdfg_nodes", "count"},
      {"sched.placement_attempts", "count"},
      {"sched.probe_rejections", "count"},
      {"sched.probe_accept_ratio", "ratio"},
      {"sched.copies_inserted", "count"},
      {"artifact.bytes", "bytes"},
      {"sim.cycles", "cycles"},
      {"store.lookups", "count"},
      {"store.hit_ratio", "ratio"},
      {"store.memory_hits", "count"},
      {"store.disk_hits", "count"},
      {"store.inserts", "count"},
      {"store.evictions", "count"},
      {"store.invalid", "count"},
      {"service.scheduled", "count"},
      {"service.deduped", "count"},
      {"service.max_queue_depth", "count"},
      {"trace.ops", "count"},
      {"trace.overhead_ratio", "ratio"},
      {"machine.calib_ms", "ms"},
      {"machine.nproc", "count"},
      {"machine.load_before", "load"},
      {"machine.load_after", "load"},
  };
  return kLayers;
}

Report::Report() {
  for (const auto& [name, unit] : layerCatalog()) layers_[name] = {0.0, unit};
}

void Report::endToEnd(const std::string& name, double value,
                      const std::string& unit) {
  endToEnd_[name] = {value, unit};
}

void Report::layer(const std::string& name, double value) {
  auto it = layers_.find(name);
  if (it == layers_.end()) {
    std::cerr << "perfbench: undeclared per-layer metric " << name << "\n";
    std::exit(2);
  }
  it->second.value = value;
}

void Report::timing(const std::string& name, double raw,
                    const std::string& unit, double factor) {
  endToEnd(name, unit == "1/s" ? raw / factor : raw * factor, unit);
  info_["raw_" + name] = raw;
}

void Report::info(const std::string& name, json::Value value) {
  info_[name] = std::move(value);
}

bool Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failed_ <= 10) std::cerr << "perfbench: check failed: " << what << "\n";
  }
  return ok;
}

void Report::tally(std::uint64_t attempted, std::uint64_t failed,
                   const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0)
    std::cerr << "perfbench: " << failed << " of " << attempted << " "
              << what << " failed\n";
}

std::string Report::toJsonLine(bool trace) const {
  // Metric values keep every digit (%.17g); json::Value would print six.
  std::string metrics;
  for (const auto& [name, m] : trace ? layers_ : endToEnd_) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    metrics += (metrics.empty() ? "\"" : ",\"") + name + "\":{\"value\":" +
               value + ",\"unit\":\"" + m.unit + "\"}";
  }
  return std::string("{\"correct\":") +
         (failed_ == 0 && attempted_ > 0 ? "true" : "false") +
         ",\"attempted\":" + std::to_string(attempted_) +
         ",\"failed\":" + std::to_string(failed_) + ",\"metrics\":{" +
         metrics + "},\"info\":" + json::Value(info_).dump(0) + "}";
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double logSum = 0.0;
  for (double v : values) logSum += std::log(std::max(v, 1e-12));
  return std::exp(logSum / static_cast<double>(values.size()));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

WindowStats windowStats(const std::vector<Sample>& samples,
                        Clock::time_point start, double seconds,
                        unsigned windows, const std::vector<double>& qs,
                        const SpeedProbe& probe) {
  WindowStats out;
  out.samples = samples.size();
  const double width = seconds / static_cast<double>(windows);
  std::vector<std::vector<double>> perWindow(windows);
  for (const Sample& s : samples) {
    const auto w = static_cast<std::size_t>(s.atS / width);
    perWindow[std::min<std::size_t>(w, windows - 1)].push_back(s.ms);
  }
  std::vector<std::vector<double>> raw(qs.size()), scaled(qs.size());
  std::vector<double> rates, scaledRates;
  const auto at = [&](double s) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(s));
  };
  for (unsigned w = 0; w < windows; ++w) {
    if (perWindow[w].empty()) continue;
    const double factor = probe.factorBetween(at(w * width), at((w + 1) * width));
    for (std::size_t i = 0; i < qs.size(); ++i) {
      const double q = quantile(perWindow[w], qs[i]);
      raw[i].push_back(q);
      scaled[i].push_back(q * factor);
    }
    const double rate = static_cast<double>(perWindow[w].size()) / width;
    rates.push_back(rate);
    scaledRates.push_back(rate / factor);
  }
  for (std::size_t i = 0; i < qs.size(); ++i) {
    out.quantilesMs.push_back(quantile(raw[i], kSteadyShare));
    out.scaledQuantilesMs.push_back(quantile(scaled[i], kSteadyShare));
  }
  out.perSecond = quantile(rates, 1.0 - kSteadyShare);
  out.scaledPerSecond = quantile(scaledRates, 1.0 - kSteadyShare);
  return out;
}

/// Wall time of one fixed in-process work loop that uses no library code.
static double calibrationSampleMs() {
  // Sorting and hash-map traffic from the standard library only: a loop
  // that no change to the library can speed up or slow down.
  const Clock::time_point t0 = Clock::now();
  std::uint32_t x = 2463534242u;
  std::vector<std::uint32_t> values(1u << 14);
  for (std::uint32_t& v : values) {
    x ^= x << 13;
    x ^= x >> 17;
    x ^= x << 5;
    v = x;
  }
  std::sort(values.begin(), values.end());
  std::unordered_map<std::uint32_t, std::uint32_t> map;
  for (std::size_t i = 0; i < values.size(); i += 2) map[values[i]] = x++;
  std::uint64_t found = 0;
  for (std::uint32_t v : values) found += map.count(v);
  const double ms = msBetween(t0, Clock::now());
  return found == 0 ? 0.0 : ms;  // `found` is never 0; keeps the loop live
}

void SpeedProbe::sample() {
  samples_.emplace_back(Clock::now(), calibrationSampleMs());
}

void SpeedProbe::sampleEvery(double periodS) {
  if (samples_.empty() || secondsSince(samples_.back().first) >= periodS)
    sample();
}

double SpeedProbe::factor() const {
  constexpr std::size_t kLatest = 5;
  std::vector<double> latest;
  for (std::size_t i = samples_.size() > kLatest ? samples_.size() - kLatest : 0;
       i < samples_.size(); ++i)
    latest.push_back(samples_[i].second);
  return latest.empty() ? 1.0 : kReferenceCalibMs / median(latest);
}

double SpeedProbe::factorBetween(Clock::time_point from,
                                 Clock::time_point to) const {
  std::vector<double> in;
  for (const auto& [t, ms] : samples_)
    if (t >= from && t < to) in.push_back(ms);
  return in.empty() ? factor() : kReferenceCalibMs / median(in);
}

double SpeedProbe::calibMs() const {
  std::vector<double> all;
  for (const auto& [t, ms] : samples_) all.push_back(ms);
  return quantile(all, kSteadyShare);
}

void recordMachine(Report& report, const SpeedProbe& probe,
                   const Options& opts) {
  report.layer("machine.calib_ms", probe.calibMs());
  report.layer("machine.nproc", static_cast<double>(opts.nproc));
  report.info("calib_ms", probe.calibMs());
  report.info("nproc", static_cast<std::int64_t>(opts.nproc));
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string fingerprintDigest(
    std::vector<std::pair<std::string, std::uint64_t>> fingerprints) {
  std::sort(fingerprints.begin(), fingerprints.end());
  cgra::Sha256 h;
  for (const auto& [label, fp] : fingerprints) {
    h.update(label.data(), label.size());
    h.updateU64(fp);
  }
  return h.hex().substr(0, 16);
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload compile_cold|sweep|serve_hot|"
               "serve_churn --seed N --seconds S --trace 0|1 [--tmp DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opts;
  opts.nproc = std::max(1u, std::thread::hardware_concurrency());
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") opts.workload = value;
      else if (flag == "--seed") opts.seed = std::stoull(value);
      else if (flag == "--seconds") opts.seconds = std::stod(value);
      else if (flag == "--trace") opts.trace = value != "0";
      else if (flag == "--tmp") opts.tmpDir = value;
      else return usage(("unknown flag " + flag).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (opts.seconds <= 0.0) return usage("--seconds must be positive");

  Report report;
  try {
    if (opts.workload == "compile_cold") report = runCompileCold(opts);
    else if (opts.workload == "sweep") report = runSweep(opts);
    else if (opts.workload == "serve_hot") report = runServeHot(opts);
    else if (opts.workload == "serve_churn") report = runServeChurn(opts);
    else return usage(("unknown workload '" + opts.workload + "'").c_str());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opts.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  report.endToEnd("peak_rss_mb", peakRssMb(), "MiB");
  report.info("seed", static_cast<std::int64_t>(opts.seed));
  report.info("fail_frac",
              report.attempted() == 0
                  ? 1.0
                  : static_cast<double>(report.failed()) /
                        static_cast<double>(report.attempted()));
  std::cout << report.toJsonLine(opts.trace) << std::endl;
  return report.failed() == 0 && report.attempted() > 0 ? 0 : 1;
}
