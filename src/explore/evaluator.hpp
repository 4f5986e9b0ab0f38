// Candidate evaluation for the explore loop (DESIGN.md §14).
//
// The Evaluator owns the bridge from genotypes to objective values: it
// materializes each previously unseen candidate, schedules the whole kernel
// set on it through the existing sweep engine (with a store attached,
// artifact::runCachedSweep resolves each key through the store on the
// sweep's workers, so a composition revisited across generations — or
// across explore runs sharing a cache directory — costs a store hit, not a
// schedule), and condenses the per-kernel results plus the analytical
// resource model into one `CandidateEval`.
//
// Two memo layers stack:
//  * an in-process memo keyed by Genotype::key() — a candidate proposed
//    twice in one run is summarized once and never re-materialized;
//  * the ArtifactStore underneath — cold/warm runs produce byte-identical
//    stable reports because cached sweeps are drop-in (DESIGN.md §10).
//
// Pareto semantics: minimize (areaLuts, weightedLength). Infeasible
// candidates (any kernel unschedulable) never dominate and never enter the
// front; ties on both axes leave both candidates non-dominated.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "artifact/store.hpp"
#include "cdfg/cdfg.hpp"
#include "explore/space.hpp"
#include "sched/sweep.hpp"

namespace cgra::explore {

/// One kernel of the workload set, with its weight in the quality
/// objective (a kernel scheduled 2× as often can count 2×).
struct ExploreKernel {
  std::string name;
  const Cdfg* graph = nullptr;
  double weight = 1.0;
};

/// Per-kernel outcome inside one candidate's evaluation.
struct KernelOutcome {
  std::string kernel;
  bool ok = false;
  unsigned contexts = 0;
  double staticUtilization = 0.0;
  std::string failureReason;  ///< typed reason name when !ok

  json::Value toJson() const;
};

/// One evaluated candidate: objectives plus the per-kernel evidence.
struct CandidateEval {
  Genotype genotype;
  std::string key;
  bool feasible = false;       ///< every kernel scheduled
  double weightedLength = 0.0; ///< Σ weight·contexts (quality axis, minimize)
  double meanUtilization = 0.0;
  double areaLuts = 0.0;       ///< lutLogic + lutMemory (area axis, minimize)
  unsigned dsp = 0;
  unsigned bram = 0;
  double frequencyMHz = 0.0;
  std::vector<KernelOutcome> kernels;

  json::Value toJson() const;
};

/// True when `a` Pareto-dominates `b`: `a` is feasible, no worse than `b`
/// on both (areaLuts, weightedLength), and strictly better on at least one.
/// A feasible candidate dominates every infeasible one.
bool dominates(const CandidateEval& a, const CandidateEval& b);

/// Indices of the non-dominated feasible members of `evals`, ascending.
std::vector<std::size_t> paretoFrontIndices(
    const std::vector<CandidateEval>& evals);

/// Evaluation traffic counters, surfaced in the explore report and the
/// registry metrics. `storeHits/storeMisses` are volatile (warm runs
/// differ); the rest is deterministic for a given run.
struct EvaluatorCounters {
  std::uint64_t evaluations = 0;  ///< distinct genotypes actually evaluated
  std::uint64_t memoHits = 0;     ///< proposals answered by the in-process memo
  std::uint64_t jobs = 0;         ///< candidate×kernel sweep jobs dispatched
  std::uint64_t storeHits = 0;
  std::uint64_t storeMisses = 0;
};

class Evaluator {
public:
  /// `store` may be null (memo-only evaluation). Kernel graphs must stay
  /// alive for the Evaluator's lifetime.
  Evaluator(std::vector<ExploreKernel> kernels, SweepOptions sweep,
            artifact::ArtifactStore* store);

  /// Evaluates a batch: unseen genotypes are deduped by key, materialized,
  /// and scheduled as one candidate×kernel sweep; results return in batch
  /// order. Deterministic for a given batch regardless of sweep threads or
  /// store warmth.
  std::vector<CandidateEval> evaluate(const std::vector<Genotype>& batch);

  /// True when `key` is already memoized (evaluating it again is free).
  bool known(const std::string& key) const { return memo_.contains(key); }

  const EvaluatorCounters& counters() const { return counters_; }

private:
  std::vector<ExploreKernel> kernels_;
  SweepOptions sweep_;
  artifact::ArtifactStore* store_;
  std::map<std::string, CandidateEval> memo_;
  EvaluatorCounters counters_;
};

}  // namespace cgra::explore
