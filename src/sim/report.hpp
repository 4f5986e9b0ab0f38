// Combined observability report: static schedule quality (sched/metrics)
// merged with the runtime hardware counters of a simulated invocation
// (sim/counters) into one exportable artifact.
//
// This is the accessor layer tools and benches consume instead of doing raw
// SimResult field math (check_deprecated_schedule.sh enforces that): the
// derived quantities — achieved utilization, squash rate, cycles per op —
// have exactly one definition here, so every surface (cgra-tool stats/sim,
// sweep aggregates, BENCH_*.json) reports the same numbers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "sched/metrics.hpp"
#include "sim/simulator.hpp"

namespace cgra {

/// Static + (optional) runtime report of one schedule on one composition.
struct Report {
  ScheduleQuality quality;  ///< static schedule-shape metrics

  /// Runtime section; meaningful only when `hasRuntime`.
  bool hasRuntime = false;
  std::uint64_t runCycles = 0;
  std::uint64_t invocationCycles = 0;
  std::uint64_t dmaLoads = 0;
  std::uint64_t dmaStores = 0;
  double energy = 0.0;
  std::optional<SimCounters> counters;  ///< engaged when collectCounters was on

  /// Mean per-PE utilization promised by the schedule shape.
  double staticUtilization() const { return quality.staticUtilization; }

  /// Mean per-PE utilization *achieved* by the run: total busy cycles over
  /// numPEs × runCycles. Falls back to staticUtilization() without counters.
  double achievedUtilization() const;

  /// Achieved utilization of one PE (busy / runCycles); static without
  /// counters.
  double peUtilization(PEId pe) const;

  /// Fraction of issued ops whose commit was predicated off (0 without
  /// counters).
  double squashRate() const;

  /// Mean run cycles per executed (non-squashed) operation; 0 without
  /// counters or when nothing executed.
  double cyclesPerOp() const;

  /// Nested JSON ({"schedule": ..., "runtime": ...}) with sorted keys at
  /// every level — byte-stable for identical inputs.
  json::Value toJson() const;

  /// Per-PE CSV table (header + one row per PE); runtime columns are 0 when
  /// the report is static-only.
  std::string toCsv() const;
};

/// Builds a report. `metrics`/`sim` may be null: `metrics` contributes
/// fused-op counts, `sim` the runtime section (with counters when the run
/// collected them).
Report makeReport(const Schedule& sched, const Composition& comp,
                  const SchedulerMetrics* metrics = nullptr,
                  const SimResult* sim = nullptr);

/// ASCII per-PE×time utilization heatmap. One row per PE, contexts bucketed
/// into at most `maxWidth` columns; cell intensity is the busy fraction of
/// the bucket. When `runtime` is given, contexts are weighted by their
/// execution counts, so a hot loop body glows even if it is a sliver of the
/// context memory.
std::string utilizationHeatmap(const Schedule& sched, const Composition& comp,
                               const SimCounters* runtime = nullptr,
                               unsigned maxWidth = 64);

}  // namespace cgra
