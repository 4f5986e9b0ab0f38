// Persistent schedule artifacts: the versioned, canonical serialization of
// one scheduling result (DESIGN.md §10).
//
// The scheduler is deliberately expensive (longest-path list scheduling
// with speculation, copy routing and loop-compatibility checks) and a
// deterministic pure function of its inputs, so its output is worth
// persisting: exploration workloads (sweeps, synthesis ranking, property
// tests) re-schedule identical (composition × kernel × options) jobs over
// and over. A ScheduleArtifact captures everything a consumer needs —
// placements, routes/copies, predication and C-Box assignments, CCU
// branches, live bindings, metrics counters, and optionally the encoded
// context images — with a bit-exact toJson/fromJson round trip:
// deserializing an artifact yields a Schedule whose fingerprint() equals
// the original's, which runs identically on the Simulator and passes
// verifySchedule (sched/validate.hpp) unchanged. Failed runs round-trip
// too (negative caching): an unmappable job's typed FailureReason is as
// deterministic as a successful schedule. Each record of the document has
// one layout (artifact.cpp), which toJson runs with json::FieldEncoder and
// fromJson with json::FieldDecoder (json.hpp), so the two cannot drift.
#pragma once

#include <optional>
#include <string>

#include "ctx/contexts.hpp"
#include "json/json.hpp"
#include "sched/scheduler.hpp"

namespace cgra::artifact {

/// Format tag of the on-disk document. Bump together with the structural
/// layout; readers reject unknown tags (a miss, never a misparse).
inline constexpr const char* kArtifactFormat = "cgra-artifact-v1";

/// One cached scheduling result: the run's ScheduleReport — success with a
/// full schedule, or a typed failure — with its metrics' timings zeroed and
/// no trace. `contexts` carries the deployable context images only in
/// `"artifact": true` wire responses; stored artifacts never attach them
/// (regenerating is deterministic), so one key names one document.
struct ScheduleArtifact : ScheduleReport {
  std::string key;  ///< content-addressed cache key (sched/job_key.hpp)
  std::uint64_t fingerprint = 0; ///< Schedule::fingerprint() when ok
  std::optional<ContextImages> contexts;

  /// Canonical JSON document (keys sorted at every level, built in that
  /// order; no volatile fields): two artifacts of the same result dump
  /// byte-identically. Its `"stats"` block (contexts, C-Box slots, copies,
  /// consts, fused writes) is derived from the schedule and the metrics.
  json::Value toJson() const;

  /// Parses and checks a document on its own: format tag, field shape,
  /// each value's type and range (a fingerprint is canonical decimal),
  /// schedule bounds (layer 1 of verifySchedule), a `"stats"` block that
  /// agrees with the schedule and metrics, and — for successful artifacts —
  /// that the stored fingerprint matches the deserialized schedule's
  /// recomputed one, so silent corruption of any schedule field is detected
  /// at load time. Throws cgra::Error. A forger can recompute the
  /// fingerprint, so this does not make a schedule trustworthy: that takes
  /// the composition and CDFG its key names, and ArtifactStore runs all of
  /// verifySchedule with them on every disk load.
  static ScheduleArtifact fromJson(const json::Value& doc);

  /// Builds an artifact from a finished scheduling run. Volatile fields
  /// (wall times) are zeroed so artifacts are content-deterministic.
  static ScheduleArtifact fromReport(std::string key,
                                     const ScheduleReport& report);
};

/// Visits the keys of an artifact document in ascending order; defined for
/// json::FieldEncoder and json::FieldDecoder.
template <class Coder, class Artifact>
void artifactFields(Coder& c, Artifact& a);

/// The artifact document as a nested record (`"artifact": true` wire
/// responses attach it).
inline constexpr auto kArtifactLayout =
    json::layout<8>([](auto& c, auto& a) { artifactFields(c, a); });

/// Bit-exact Schedule serialization (every field of sched/schedule.hpp).
/// Exposed separately for tests and external tooling. scheduleFromJson
/// rejects a schedule that fails layer 1 (bounds) of verifySchedule.
json::Value scheduleToJson(const Schedule& sched);
Schedule scheduleFromJson(const json::Value& doc);

}  // namespace cgra::artifact
