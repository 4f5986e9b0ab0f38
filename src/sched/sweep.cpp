#include "sched/sweep.hpp"

#include <chrono>
#include <filesystem>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "arch/arch_model.hpp"
#include "sched/job_key.hpp"
#include "support/clock.hpp"
#include "support/thread_pool.hpp"

namespace cgra {

namespace {

std::string jobLabel(const SweepJob& job) {
  return !job.label.empty() ? job.label : (job.comp ? job.comp->name() : "?");
}

ScheduleReport scheduleJob(const SweepJob& job, const TraceOptions& trace) {
  try {
    CGRA_ASSERT(job.comp != nullptr && job.graph != nullptr);
    // The Scheduler resolves its composition's memoized ArchModel — built
    // once in the serial warm-up below, so this never rebuilds tables.
    const Scheduler scheduler(*job.comp, job.options);
    ScheduleRequest request(*job.graph);
    request.trace = trace;
    return scheduler.schedule(request);
  } catch (const std::exception& e) {
    // Programmer errors (malformed graphs, violated invariants) still land
    // here so one bad job cannot abort a long sweep; they are tallied as
    // Internal rather than a kernel-capacity mismatch.
    ScheduleReport report;
    report.failure.reason = FailureReason::Internal;
    report.failure.message = e.what();
    return report;
  }
}

/// The one report → result conversion, for fresh and store-served reports
/// alike: fingerprint and staticUtilization are always recomputed from the
/// schedule, so a warm result is equivalent to a fresh one by construction.
SweepJobResult toResult(const SweepJob& job, ScheduleReport report,
                        bool keepSchedule) {
  SweepJobResult out;
  static_cast<ScheduleReport&>(out) = std::move(report);
  out.label = jobLabel(job);
  if (out.ok) {
    out.contexts = out.schedule.length;
    out.fingerprint = out.schedule.fingerprint();
    out.staticUtilization =
        computeScheduleQuality(out.schedule, *job.comp, &out.metrics)
            .staticUtilization;
  }
  if (!keepSchedule) out.schedule = Schedule();
  return out;
}

/// Content key of every job (sched/job_key.hpp), in job order; empty for a
/// malformed job (null composition or graph). Composition digests come
/// memoized from the ArchModel and each distinct graph is hashed once, so
/// an N-comp × M-kernel matrix hashes each input once — not once per job.
std::vector<std::string> sweepJobKeys(const std::vector<SweepJob>& jobs) {
  std::vector<std::string> keys(jobs.size());
  std::unordered_map<const Cdfg*, std::string> graphDigests;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i].comp == nullptr || jobs[i].graph == nullptr) continue;
    std::string& graphDigest = graphDigests[jobs[i].graph];
    if (graphDigest.empty()) graphDigest = cdfgDigest(*jobs[i].graph);
    keys[i] = scheduleJobKeyWithDigests(
        ArchModel::get(*jobs[i].comp)->digest(), graphDigest, jobs[i].options);
  }
  return keys;
}

/// Number of distinct ArchModels behind the jobs' compositions, building
/// any the memo still lacks.
std::size_t countArchModels(const std::vector<SweepJob>& jobs) {
  std::unordered_set<const ArchModel*> models;
  for (const SweepJob& job : jobs)
    if (job.comp != nullptr) models.insert(ArchModel::get(*job.comp).get());
  return models.size();
}

/// Fills aggregate (merged over successful jobs), failures,
/// failuresByReason and meanStaticUtilization from `report.results`.
void tallyResults(SweepReport& report) {
  report.aggregate.runs = 0;
  double utilSum = 0.0;
  std::size_t okCount = 0;
  for (const SweepJobResult& r : report.results) {
    if (r.ok) {
      report.aggregate.merge(r.metrics);
      utilSum += r.staticUtilization;
      ++okCount;
    } else {
      ++report.failures;
      report.failuresByReason[static_cast<std::size_t>(r.failure.reason)]++;
    }
  }
  report.meanStaticUtilization = okCount > 0 ? utilSum / okCount : 0.0;
}

/// Turns a job label into a safe filename component ("adpcm@mesh 9" ->
/// "adpcm_mesh_9"): portable across filesystems and shell-quoting-free.
std::string sanitizeLabel(const std::string& label) {
  std::string out;
  out.reserve(label.size());
  for (char c : label) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.';
    out += keep ? c : '_';
  }
  if (out.empty()) out = "job";
  return out;
}

}  // namespace

SweepReport runSweep(const std::vector<SweepJob>& jobs,
                     const SweepOptions& options,
                     const SweepResolver& resolve) {
  const auto wallStart = std::chrono::steady_clock::now();

  SweepReport report;
  report.threadsUsed =
      options.threads == 0 ? ThreadPool::defaultThreads() : options.threads;
  report.results.resize(jobs.size());

  TraceOptions trace = options.trace;
  if (!options.traceDir.empty()) trace.enabled = true;

  // Warm the ArchModel memo serially: one immutable analysis bundle per
  // distinct composition, shared read-only by every scheduler instance.
  // Jobs then only read shared_ptrs — no locking on the hot path.
  {
    const auto buildStart = std::chrono::steady_clock::now();
    const std::uint64_t buildsBefore = ArchModel::buildsPerformed();
    report.routingCacheEntries = countArchModels(jobs);
    report.archModelBuilds =
        static_cast<std::size_t>(ArchModel::buildsPerformed() - buildsBefore);
    report.archModelBuildMs = msSince(buildStart);
  }

  // In-sweep dedup: the scheduler is a pure function of (composition,
  // graph, options), so jobs with equal content keys produce bit-identical
  // results — schedule each distinct key once and fan the result out.
  const std::vector<std::string> keys = sweepJobKeys(jobs);
  std::vector<std::size_t> representative(jobs.size());
  std::vector<std::size_t> uniqueJobs;
  {
    std::unordered_map<std::string, std::size_t> firstByKey;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      // A malformed job (empty key) never dedups: scheduleJob records the
      // failure per job.
      const bool first =
          keys[i].empty() || firstByKey.emplace(keys[i], i).second;
      representative[i] = first ? i : firstByKey.at(keys[i]);
      if (first) uniqueJobs.push_back(i);
    }
  }

  parallelFor(uniqueJobs.size(), report.threadsUsed, [&](std::size_t u) {
    const std::size_t i = uniqueJobs[u];
    const auto schedule = [&] { return scheduleJob(jobs[i], trace); };
    report.results[i] = toResult(jobs[i],
                                 resolve && !keys[i].empty()
                                     ? resolve(jobs[i], keys[i], schedule)
                                     : schedule(),
                                 options.keepSchedules);
    report.results[i].cacheKey = keys[i];
  });

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (representative[i] == i) continue;
    report.results[i] = report.results[representative[i]];
    report.results[i].label = jobLabel(jobs[i]);
    report.results[i].fromCache = true;
    ++report.dedupedJobs;
  }
  tallyResults(report);

  // Trace files are written serially after the parallel section: job order
  // (and content — logical timestamps only) is deterministic, so the set of
  // files is byte-identical for any thread count.
  if (!options.traceDir.empty()) {
    std::filesystem::create_directories(options.traceDir);
    for (const SweepJobResult& r : report.results) {
      if (r.trace == nullptr) continue;
      const std::filesystem::path path =
          std::filesystem::path(options.traceDir) /
          (sanitizeLabel(r.label) + ".trace.json");
      json::writeFile(path.string(), r.trace->toChromeJson(r.label));
    }
  }

  report.wallTimeMs = msSince(wallStart);
  return report;
}

json::Value SweepReport::toJson(bool includeVolatile) const {
  json::Object o;
  if (includeVolatile) o["threads"] = static_cast<std::int64_t>(threadsUsed);
  o["jobsTotal"] = static_cast<std::int64_t>(results.size());
  o["jobsFailed"] = static_cast<std::int64_t>(failures);
  {
    json::Object byReason;
    for (std::size_t i = 0; i < failuresByReason.size(); ++i)
      if (failuresByReason[i] > 0)
        byReason[failureReasonName(static_cast<FailureReason>(i))] =
            static_cast<std::int64_t>(failuresByReason[i]);
    o["failuresByReason"] = std::move(byReason);
  }
  o["routingCacheEntries"] = static_cast<std::int64_t>(routingCacheEntries);
  if (includeVolatile) {
    // Builds actually performed vary with memo warmth (an earlier sweep on
    // the same Composition instance leaves the model built), so they stay
    // out of the stable form like every other run-dependent counter.
    o["archModelBuilds"] = static_cast<std::int64_t>(archModelBuilds);
    o["archModelBuildMs"] = archModelBuildMs;
  }
  o["dedupedJobs"] = static_cast<std::int64_t>(dedupedJobs);
  o["meanStaticUtilization"] = meanStaticUtilization;
  if (includeVolatile) o["wallTimeMs"] = wallTimeMs;
  if (includeVolatile && cacheEnabled) {
    // Persistent-cache traffic is inherently run-dependent (a warm run hits
    // where a cold run missed), so it never appears in the stable form.
    json::Object c;
    c["hits"] = static_cast<std::int64_t>(cacheHits);
    c["misses"] = static_cast<std::int64_t>(cacheMisses);
    c["evictions"] = static_cast<std::int64_t>(cacheEvictions);
    o["cache"] = std::move(c);
  }
  o["aggregate"] = aggregate.toJson(includeVolatile);
  json::Array jobs;
  for (const SweepJobResult& r : results) {
    json::Object j;
    j["label"] = r.label;
    j["ok"] = r.ok;
    if (r.ok) {
      j["contexts"] = static_cast<std::int64_t>(r.contexts);
      j["fingerprint"] = std::to_string(r.fingerprint);  // 64-bit safe
      j["staticUtilization"] = r.staticUtilization;
      j["metrics"] = r.metrics.toJson(includeVolatile);
    } else {
      j["error"] = r.failure.message;
      j["failureReason"] = failureReasonName(r.failure.reason);
    }
    jobs.emplace_back(std::move(j));
  }
  o["jobs"] = std::move(jobs);
  return json::sortKeys(json::Value(std::move(o)));
}

}  // namespace cgra
