#include "explore/evaluator.hpp"

#include <deque>

#include "arch/resource_model.hpp"
#include "artifact/sweep_cache.hpp"
#include "sched/scheduler.hpp"

namespace cgra::explore {

json::Value KernelOutcome::toJson() const {
  json::Object obj;
  obj["kernel"] = kernel;
  obj["ok"] = ok;
  obj["contexts"] = static_cast<std::int64_t>(contexts);
  obj["staticUtilization"] = staticUtilization;
  if (!ok) obj["failureReason"] = failureReason;
  return obj;
}

json::Value CandidateEval::toJson() const {
  json::Object obj;
  obj["key"] = key;
  obj["genotype"] = genotype.toJson();
  obj["feasible"] = feasible;
  obj["weightedLength"] = weightedLength;
  obj["meanUtilization"] = meanUtilization;
  obj["areaLuts"] = areaLuts;
  obj["dsp"] = static_cast<std::int64_t>(dsp);
  obj["bram"] = static_cast<std::int64_t>(bram);
  obj["frequencyMHz"] = frequencyMHz;
  json::Array ks;
  for (const KernelOutcome& k : kernels) ks.push_back(k.toJson());
  obj["kernels"] = std::move(ks);
  return obj;
}

bool dominates(const CandidateEval& a, const CandidateEval& b) {
  if (!a.feasible) return false;
  if (!b.feasible) return true;
  const bool noWorse =
      a.areaLuts <= b.areaLuts && a.weightedLength <= b.weightedLength;
  const bool strictlyBetter =
      a.areaLuts < b.areaLuts || a.weightedLength < b.weightedLength;
  return noWorse && strictlyBetter;
}

std::vector<std::size_t> paretoFrontIndices(
    const std::vector<CandidateEval>& evals) {
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < evals.size(); ++i) {
    if (!evals[i].feasible) continue;
    bool dominated = false;
    for (std::size_t j = 0; j < evals.size() && !dominated; ++j)
      dominated = j != i && dominates(evals[j], evals[i]);
    if (!dominated) front.push_back(i);
  }
  return front;
}

Evaluator::Evaluator(std::vector<ExploreKernel> kernels, SweepOptions sweep,
                     artifact::ArtifactStore* store)
    : kernels_(std::move(kernels)), sweep_(sweep), store_(store) {
  if (kernels_.empty()) throw Error("explore evaluator: empty kernel set");
  for (const ExploreKernel& k : kernels_)
    if (k.graph == nullptr)
      throw Error("explore evaluator: kernel \"" + k.name + "\" has no CDFG");
  // Candidate ranking needs lengths and utilizations, never the schedules.
  sweep_.keepSchedules = false;
}

std::vector<CandidateEval> Evaluator::evaluate(
    const std::vector<Genotype>& batch) {
  // Collect the genotypes this batch actually has to schedule: unseen keys,
  // first occurrence wins within the batch.
  std::vector<Genotype> fresh;
  for (const Genotype& g : batch) {
    const std::string key = g.key();
    if (memo_.contains(key)) {
      ++counters_.memoHits;
      continue;
    }
    bool inFresh = false;
    for (const Genotype& f : fresh) inFresh = inFresh || f.key() == key;
    if (inFresh) {
      ++counters_.memoHits;
      continue;
    }
    fresh.push_back(g);
  }

  if (!fresh.empty()) {
    // Deque: SweepJob keeps non-owning pointers, so element addresses must
    // survive the loop that appends compositions.
    std::deque<Composition> comps;
    std::vector<SweepJob> jobs;
    for (const Genotype& g : fresh) {
      comps.push_back(g.materialize());
      const Composition& comp = comps.back();
      for (const ExploreKernel& k : kernels_)
        jobs.push_back(SweepJob{&comp, k.graph, k.name + "@" + comp.name(),
                                SchedulerOptions{}});
    }
    counters_.jobs += jobs.size();

    const SweepReport report =
        store_ != nullptr ? artifact::runCachedSweep(jobs, sweep_, *store_)
                          : runSweep(jobs, sweep_);
    counters_.storeHits += report.cacheHits;
    counters_.storeMisses += report.cacheMisses;

    for (std::size_t c = 0; c < fresh.size(); ++c) {
      CandidateEval eval;
      eval.genotype = fresh[c];
      eval.key = fresh[c].key();
      eval.feasible = true;
      double utilSum = 0.0;
      unsigned okCount = 0;
      for (std::size_t k = 0; k < kernels_.size(); ++k) {
        const SweepJobResult& r = report.results[c * kernels_.size() + k];
        KernelOutcome outcome;
        outcome.kernel = kernels_[k].name;
        outcome.ok = r.ok;
        if (r.ok) {
          outcome.contexts = r.contexts;
          outcome.staticUtilization = r.staticUtilization;
          eval.weightedLength +=
              kernels_[k].weight * static_cast<double>(r.contexts);
          utilSum += r.staticUtilization;
          ++okCount;
        } else {
          outcome.failureReason = failureReasonName(r.failure.reason);
          eval.feasible = false;
        }
        eval.kernels.push_back(std::move(outcome));
      }
      eval.meanUtilization =
          okCount == 0 ? 0.0 : utilSum / static_cast<double>(okCount);
      const ResourceEstimate est = estimateResources(comps[c]);
      eval.areaLuts = est.lutLogic + est.lutMemory;
      eval.dsp = est.dsp;
      eval.bram = est.bram;
      eval.frequencyMHz = est.frequencyMHz;
      memo_.emplace(eval.key, std::move(eval));
      ++counters_.evaluations;
    }
  }

  std::vector<CandidateEval> out;
  out.reserve(batch.size());
  for (const Genotype& g : batch) out.push_back(memo_.at(g.key()));
  return out;
}

}  // namespace cgra::explore
