// Stable content hash of one scheduling job — the cache key of the artifact
// store and the dedup key of the sweep engine.
//
// The scheduler is a deterministic pure function of (composition, CDFG,
// options), so two jobs with equal keys produce bit-identical schedules.
// The key digests the *content* of those inputs (never pointers or names
// alone): the composition's canonical JSON, every CDFG node/edge/variable/
// condition/loop, the scheduler options, and a version salt that must be
// bumped whenever a scheduler change can alter any schedule — stale cached
// artifacts from an older scheduler then simply miss.
#pragma once

#include <string>

#include "sched/scheduler.hpp"

namespace cgra {

/// Invalidation salt folded into every job key. Bump the trailing number
/// when scheduler behavior changes (placement order, routing, fusing rules,
/// cost model...) so persisted artifacts from older binaries are never
/// served for the new scheduler's output. DESIGN.md §10 records the policy.
inline constexpr const char* kSchedulerVersionSalt = "cgra-sched-salt-2";

/// 64-hex-char SHA-256 over (salt, composition JSON, CDFG content, options).
/// Deterministic across platforms, processes and library versions. Reads
/// the composition digest memoized per instance (`ArchModel::digestOf`)
/// without building the composition's ArchModel, so keying a request that
/// the store then answers costs no model build.
std::string scheduleJobKey(const Composition& comp, const Cdfg& graph,
                           const SchedulerOptions& options,
                           const std::string& salt = kSchedulerVersionSalt);

/// SHA-256 hex of the composition's canonical JSON alone, memoized per
/// instance and computed without an ArchModel build. The composition
/// contribution to a job key is this digest: sweeps and services hash many
/// jobs against few compositions and compute it once per composition.
std::string compositionDigest(const Composition& comp);

/// SHA-256 hex over the CDFG content alone (nodes, edges, variables,
/// conditions, loops). The CDFG contribution to a job key is this digest:
/// sweeps schedule many (composition × kernel) jobs against few kernel
/// graphs and hash each graph once instead of once per job.
std::string cdfgDigest(const Cdfg& graph);

/// Variant taking both precomputed digests — the cheapest per-job form;
/// only the options are hashed per call. scheduleJobKey funnels into this
/// recipe, so keys agree across all layers.
std::string scheduleJobKeyWithDigests(const std::string& compDigest,
                                      const std::string& cdfgDigest,
                                      const SchedulerOptions& options,
                                      const std::string& salt =
                                          kSchedulerVersionSalt);

}  // namespace cgra
