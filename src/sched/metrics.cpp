#include "sched/metrics.hpp"

#include <algorithm>

namespace cgra {

namespace {

/// The wall-time fields and their JSON keys — the one list merge,
/// clearTimings and toJson walk.
struct TimingField {
  const char* key;
  double SchedulerMetrics::*field;
};

constexpr TimingField kTimingFields[] = {
    {"totalMs", &SchedulerMetrics::totalMs},
    {"passAnalysisMs", &SchedulerMetrics::passAnalysisMs},
    {"passCandidateMs", &SchedulerMetrics::passCandidateMs},
    {"passCostModelMs", &SchedulerMetrics::passCostModelMs},
    {"passPlacementMs", &SchedulerMetrics::passPlacementMs},
    {"passRoutingMs", &SchedulerMetrics::passRoutingMs},
    {"passFusingMs", &SchedulerMetrics::passFusingMs},
    {"passCboxMs", &SchedulerMetrics::passCboxMs},
    {"passLoopMs", &SchedulerMetrics::passLoopMs},
    {"passFinalizeMs", &SchedulerMetrics::passFinalizeMs},
};

}  // namespace

void SchedulerMetrics::merge(const SchedulerMetrics& other) {
  nodesScheduled += other.nodesScheduled;
  copiesInserted += other.copiesInserted;
  constsInserted += other.constsInserted;
  fusedWrites += other.fusedWrites;
  cboxOps += other.cboxOps;
  branches += other.branches;
  steps += other.steps;
  candidateIterations += other.candidateIterations;
  placementAttempts += other.placementAttempts;
  probeRejections += other.probeRejections;
  for (const TimingField& t : kTimingFields) this->*t.field += other.*t.field;
  runs += other.runs;
}

void SchedulerMetrics::clearTimings() {
  for (const TimingField& t : kTimingFields) this->*t.field = 0.0;
}

json::Value SchedulerMetrics::toJson(bool includeTimings) const {
  json::Object o;
  o["nodesScheduled"] = nodesScheduled;
  o["copiesInserted"] = copiesInserted;
  o["constsInserted"] = constsInserted;
  o["fusedWrites"] = fusedWrites;
  o["cboxOps"] = cboxOps;
  o["branches"] = branches;
  o["steps"] = steps;
  o["candidateIterations"] = candidateIterations;
  o["placementAttempts"] = placementAttempts;
  o["probeRejections"] = probeRejections;
  if (includeTimings)
    for (const TimingField& t : kTimingFields) o[t.key] = this->*t.field;
  o["runs"] = runs;
  return json::sortKeys(json::Value(std::move(o)));
}

ScheduleQuality computeScheduleQuality(const Schedule& sched,
                                       const Composition& comp,
                                       const ScheduleStats* stats) {
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

  if (stats) q.fusedWrites = stats->fusedWrites;
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
