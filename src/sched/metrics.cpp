#include "sched/metrics.hpp"

#include <algorithm>
#include <iterator>
#include <string_view>

#include "sched/validate.hpp"

namespace cgra {

namespace {

/// Every field and its JSON key, in ascending key order: the order toJson
/// emits, so the object needs no sort pass. Exactly one of `count` and
/// `time` is set. The timed fields are the volatile wall times that
/// clearTimings zeroes and toJson(false) omits.
struct Field {
  const char* key;
  std::uint64_t SchedulerMetrics::*count;
  double SchedulerMetrics::*time;
};

constexpr Field kFields[] = {
    {"branches", &SchedulerMetrics::branches, nullptr},
    {"candidateIterations", &SchedulerMetrics::candidateIterations, nullptr},
    {"cboxOps", &SchedulerMetrics::cboxOps, nullptr},
    {"constsInserted", &SchedulerMetrics::constsInserted, nullptr},
    {"copiesInserted", &SchedulerMetrics::copiesInserted, nullptr},
    {"fusedWrites", &SchedulerMetrics::fusedWrites, nullptr},
    {"nodesScheduled", &SchedulerMetrics::nodesScheduled, nullptr},
    {"passAnalysisMs", nullptr, &SchedulerMetrics::passAnalysisMs},
    {"passCandidateMs", nullptr, &SchedulerMetrics::passCandidateMs},
    {"passCboxMs", nullptr, &SchedulerMetrics::passCboxMs},
    {"passCostModelMs", nullptr, &SchedulerMetrics::passCostModelMs},
    {"passFinalizeMs", nullptr, &SchedulerMetrics::passFinalizeMs},
    {"passFusingMs", nullptr, &SchedulerMetrics::passFusingMs},
    {"passLoopMs", nullptr, &SchedulerMetrics::passLoopMs},
    {"passPlacementMs", nullptr, &SchedulerMetrics::passPlacementMs},
    {"passRoutingMs", nullptr, &SchedulerMetrics::passRoutingMs},
    {"placementAttempts", &SchedulerMetrics::placementAttempts, nullptr},
    {"probeRejections", &SchedulerMetrics::probeRejections, nullptr},
    {"runs", &SchedulerMetrics::runs, nullptr},
    {"steps", &SchedulerMetrics::steps, nullptr},
    {"totalMs", nullptr, &SchedulerMetrics::totalMs},
};
static_assert(std::is_sorted(std::begin(kFields), std::end(kFields),
                             [](const Field& a, const Field& b) {
                               return std::string_view(a.key) <
                                      std::string_view(b.key);
                             }));
static_assert(decltype(kCountersLayout)::kKeys ==
              std::count_if(std::begin(kFields), std::end(kFields),
                            [](const Field& f) { return f.count != nullptr; }));

}  // namespace

template <class Coder, class Metrics>
void metricsFields(Coder& c, Metrics& m, bool timings) {
  for (const Field& f : kFields) {
    if (f.count != nullptr)
      c.field(f.key, m.*f.count);
    else if (timings)
      c.field(f.key, m.*f.time);
  }
}

template void metricsFields(json::FieldEncoder&, const SchedulerMetrics&,
                            bool);
template void metricsFields(json::FieldDecoder&, SchedulerMetrics&,
                            bool);

void SchedulerMetrics::merge(const SchedulerMetrics& other) {
  for (const Field& f : kFields) {
    if (f.count != nullptr)
      this->*f.count += other.*f.count;
    else
      this->*f.time += other.*f.time;
  }
}

void SchedulerMetrics::clearTimings() {
  for (const Field& f : kFields)
    if (f.time != nullptr) this->*f.time = 0.0;
}

json::Value SchedulerMetrics::toJson(bool includeTimings) const {
  json::Object o;
  o.reserve(std::size(kFields));
  json::FieldEncoder c(o);
  metricsFields(c, *this, includeTimings);
  return o;
}

ScheduleQuality computeScheduleQuality(const Schedule& sched,
                                       const Composition& comp,
                                       const SchedulerMetrics* metrics) {
  requireValidSchedule(sched, "schedule quality", &comp);
  ScheduleQuality q;
  q.length = sched.length;
  q.numPEs = comp.numPEs();
  q.cboxSlotsUsed = sched.cboxSlotsUsed;

  q.perPE.resize(comp.numPEs());
  for (PEId p = 0; p < comp.numPEs(); ++p) q.perPE[p].pe = p;

  // Per-PE busy masks (PE-major, one row of `slots` per PE), per-context
  // issue occupancy and ops in flight in one pass.
  const unsigned slots = std::max(1u, sched.length);
  std::vector<std::uint8_t> busy(std::size_t{comp.numPEs()} * slots, 0);
  std::vector<std::uint8_t> ctxIssues(slots, 0);
  std::vector<unsigned> inFlight(slots, 0);
  std::vector<unsigned> lastCycle(comp.numPEs(), 0);
  std::vector<std::uint8_t> hasOps(comp.numPEs(), 0);
  for (const ScheduledOp& op : sched.ops) {
    PEQuality& pq = q.perPE[op.pe];
    ++pq.opsIssued;
    ++q.totalOps;
    if (op.node == kNoNode) {
      ++pq.insertedOps;
      ++q.insertedOps;
    }
    ctxIssues[op.start] = 1;
    for (unsigned c = op.start; c <= op.lastCycle(); ++c) {
      busy[std::size_t{op.pe} * slots + c] = 1;
      q.peakParallelism = std::max(q.peakParallelism, ++inFlight[c]);
    }
    hasOps[op.pe] = 1;
    lastCycle[op.pe] = std::max(lastCycle[op.pe], op.lastCycle());
  }

  double utilSum = 0.0;
  for (PEId p = 0; p < comp.numPEs(); ++p) {
    PEQuality& pq = q.perPE[p];
    for (unsigned c = 0; c < sched.length; ++c)
      pq.busyCycles += busy[std::size_t{p} * slots + c];
    pq.utilization =
        sched.length > 0 ? static_cast<double>(pq.busyCycles) / sched.length
                         : 0.0;
    pq.slack = hasOps[p] ? sched.length - 1 - lastCycle[p] : sched.length;
    utilSum += pq.utilization;
  }
  q.staticUtilization = comp.numPEs() > 0 ? utilSum / comp.numPEs() : 0.0;

  unsigned occupied = 0;
  for (unsigned c = 0; c < sched.length; ++c) occupied += ctxIssues[c];
  q.contextOccupancy =
      sched.length > 0 ? static_cast<double>(occupied) / sched.length : 0.0;

  std::vector<std::uint8_t> cboxBusy(std::max(1u, sched.length), 0);
  for (const CBoxOp& cb : sched.cboxOps) cboxBusy[cb.time] = 1;
  for (unsigned c = 0; c < sched.length; ++c) q.cboxBusyCycles += cboxBusy[c];

  if (metrics) q.fusedWrites = static_cast<unsigned>(metrics->fusedWrites);
  if (q.totalOps > 0) {
    q.copyRatio = static_cast<double>(q.insertedOps) / q.totalOps;
    q.fusedRatio = static_cast<double>(q.fusedWrites) / q.totalOps;
  }
  return q;
}

json::Value ScheduleQuality::toJson() const {
  json::Object o;
  o["length"] = static_cast<std::int64_t>(length);
  o["numPEs"] = static_cast<std::int64_t>(numPEs);
  o["totalOps"] = static_cast<std::int64_t>(totalOps);
  o["insertedOps"] = static_cast<std::int64_t>(insertedOps);
  o["fusedWrites"] = static_cast<std::int64_t>(fusedWrites);
  o["staticUtilization"] = staticUtilization;
  o["contextOccupancy"] = contextOccupancy;
  o["copyRatio"] = copyRatio;
  o["fusedRatio"] = fusedRatio;
  o["cboxSlotsUsed"] = static_cast<std::int64_t>(cboxSlotsUsed);
  o["cboxBusyCycles"] = static_cast<std::int64_t>(cboxBusyCycles);
  o["peakParallelism"] = static_cast<std::int64_t>(peakParallelism);
  json::Array pes;
  for (const PEQuality& pq : perPE) {
    json::Object e;
    e["pe"] = static_cast<std::int64_t>(pq.pe);
    e["busyCycles"] = static_cast<std::int64_t>(pq.busyCycles);
    e["opsIssued"] = static_cast<std::int64_t>(pq.opsIssued);
    e["insertedOps"] = static_cast<std::int64_t>(pq.insertedOps);
    e["utilization"] = pq.utilization;
    e["slack"] = static_cast<std::int64_t>(pq.slack);
    pes.emplace_back(std::move(e));
  }
  o["perPE"] = std::move(pes);
  return json::sortKeys(json::Value(std::move(o)));
}

}  // namespace cgra
