#include "sim/report.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

namespace cgra {

double Report::achievedUtilization() const {
  if (!counters || counters->cycles == 0 || counters->numPEs == 0)
    return staticUtilization();
  std::uint64_t busy = 0;
  for (const PECounters& pc : counters->perPE) busy += pc.busyCycles;
  return static_cast<double>(busy) /
         (static_cast<double>(counters->numPEs) * counters->cycles);
}

double Report::peUtilization(PEId pe) const {
  if (counters && counters->cycles > 0 && pe < counters->perPE.size())
    return static_cast<double>(counters->perPE[pe].busyCycles) /
           counters->cycles;
  return pe < quality.perPE.size() ? quality.perPE[pe].utilization : 0.0;
}

double Report::squashRate() const {
  if (!counters) return 0.0;
  std::uint64_t issued = 0;
  for (const PECounters& pc : counters->perPE) issued += pc.opsIssued;
  return issued > 0
             ? static_cast<double>(counters->totalSquashed()) / issued
             : 0.0;
}

double Report::cyclesPerOp() const {
  if (!counters) return 0.0;
  std::uint64_t issued = 0;
  for (const PECounters& pc : counters->perPE) issued += pc.opsIssued;
  const std::uint64_t executed = issued - counters->totalSquashed();
  return executed > 0 ? static_cast<double>(counters->cycles) / executed : 0.0;
}

json::Value Report::toJson() const {
  json::Object o;
  o["schedule"] = quality.toJson();
  if (hasRuntime) {
    json::Object rt;
    rt["runCycles"] = runCycles;
    rt["invocationCycles"] = invocationCycles;
    rt["dmaLoads"] = dmaLoads;
    rt["dmaStores"] = dmaStores;
    rt["energy"] = energy;
    rt["achievedUtilization"] = achievedUtilization();
    rt["squashRate"] = squashRate();
    rt["cyclesPerOp"] = cyclesPerOp();
    if (counters) rt["counters"] = counters->toJson();
    o["runtime"] = std::move(rt);
  }
  return json::sortKeys(json::Value(std::move(o)));
}

std::string Report::toCsv() const {
  std::string out =
      "pe,staticBusy,staticUtil,slack,opsScheduled,inserted,"
      "runBusy,runNop,runIdle,runOpsIssued,squashed,rfReads,rfWrites,"
      "achievedUtil\n";
  char line[256];
  for (const PEQuality& pq : quality.perPE) {
    const PECounters* pc =
        counters && pq.pe < counters->perPE.size() ? &counters->perPE[pq.pe]
                                                   : nullptr;
    std::snprintf(
        line, sizeof line,
        "%u,%u,%.4f,%u,%u,%u,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%.4f\n",
        pq.pe, pq.busyCycles, pq.utilization, pq.slack, pq.opsIssued,
        pq.insertedOps,
        static_cast<unsigned long long>(pc ? pc->busyCycles : 0),
        static_cast<unsigned long long>(pc ? pc->nopCycles : 0),
        static_cast<unsigned long long>(pc ? pc->idleCycles : 0),
        static_cast<unsigned long long>(pc ? pc->opsIssued : 0),
        static_cast<unsigned long long>(pc ? pc->squashedOps : 0),
        static_cast<unsigned long long>(pc ? pc->rfReads : 0),
        static_cast<unsigned long long>(pc ? pc->rfWrites : 0),
        peUtilization(pq.pe));
    out += line;
  }
  return out;
}

Report makeReport(const Schedule& sched, const Composition& comp,
                  const SchedulerMetrics* metrics, const SimResult* sim) {
  Report r;
  r.quality = computeScheduleQuality(sched, comp, metrics);
  if (sim) {
    r.hasRuntime = true;
    r.runCycles = sim->runCycles;
    r.invocationCycles = sim->invocationCycles;
    r.dmaLoads = sim->dmaLoads;
    r.dmaStores = sim->dmaStores;
    r.energy = sim->energy;
    r.counters = sim->counters;
  }
  return r;
}

std::string utilizationHeatmap(const Schedule& sched, const Composition& comp,
                               const SimCounters* runtime, unsigned maxWidth) {
  // 10-level intensity ramp; a space means no busy cycle in the bucket.
  static const char kRamp[] = " .:-=+*#%@";
  if (sched.length == 0 || comp.numPEs() == 0 || maxWidth == 0)
    return "(empty schedule)\n";

  // Static busy mask per PE per context.
  std::vector<std::vector<std::uint8_t>> busy(comp.numPEs());
  for (auto& b : busy) b.assign(sched.length, 0);
  for (const ScheduledOp& op : sched.ops)
    for (unsigned c = op.start; c <= op.lastCycle(); ++c) busy[op.pe][c] = 1;

  // Context weight: execution count when runtime counters are given (a
  // never-executed context then contributes nothing), 1 otherwise.
  auto weightOf = [&](unsigned c) -> std::uint64_t {
    if (!runtime) return 1;
    return c < runtime->contextExec.size() ? runtime->contextExec[c] : 0;
  };

  const unsigned cols = std::min(maxWidth, sched.length);
  std::string out;
  out += runtime ? "Achieved per-PE utilization (execution-weighted"
                 : "Static per-PE utilization (schedule shape";
  out += ", " + std::to_string(sched.length) + " contexts in " +
         std::to_string(cols) + " columns; ' '=0% '@'=100%)\n";
  for (PEId p = 0; p < comp.numPEs(); ++p) {
    char label[16];
    std::snprintf(label, sizeof label, "PE%-3u|", p);
    out += label;
    for (unsigned col = 0; col < cols; ++col) {
      // Bucket [lo, hi) of contexts rendered by this column.
      const unsigned lo =
          static_cast<unsigned>(static_cast<std::uint64_t>(col) *
                                sched.length / cols);
      const unsigned hi =
          static_cast<unsigned>(static_cast<std::uint64_t>(col + 1) *
                                sched.length / cols);
      std::uint64_t busyW = 0, totalW = 0;
      for (unsigned c = lo; c < hi; ++c) {
        const std::uint64_t w = weightOf(c);
        totalW += w;
        if (busy[p][c]) busyW += w;
      }
      if (totalW == 0 || busyW == 0) {
        out += ' ';
      } else {
        const double f = static_cast<double>(busyW) / totalW;
        const unsigned level = std::min<unsigned>(
            9, 1 + static_cast<unsigned>(f * 8.999));
        out += kRamp[level];
      }
    }
    out += "|\n";
  }
  return out;
}

}  // namespace cgra
