#include "ctx/multi.hpp"

#include <algorithm>

#include "sched/validate.hpp"

namespace cgra {

PackedSchedules packSchedules(const std::vector<Schedule>& schedules,
                              const Composition& comp) {
  if (schedules.empty()) throw Error("packSchedules: no schedules");

  PackedSchedules out;
  out.merged.vregsPerPE.assign(comp.numPEs(), 0);
  out.merged.cboxSlotsUsed = 0;

  unsigned offset = 0;
  for (const Schedule& virt : schedules) {
    const RegAllocation alloc = allocateRegisters(virt, comp);
    Schedule phys = applyAllocation(virt, alloc);

    SchedulePlacement placement;
    placement.startCcnt = offset;
    placement.length = phys.length;
    placement.liveIns = phys.liveIns;
    placement.liveOuts = phys.liveOuts;

    for (ScheduledOp op : phys.ops) {
      op.start += offset;
      out.merged.ops.push_back(std::move(op));
    }
    for (CBoxOp op : phys.cboxOps) {
      op.time += offset;
      out.merged.cboxOps.push_back(std::move(op));
    }
    for (BranchOp b : phys.branches) {
      b.time += offset;
      b.target += offset;
      out.merged.branches.push_back(b);
    }
    for (LoopInterval li : phys.loops) {
      li.start += offset;
      li.end += offset;
      out.merged.loops.push_back(li);
    }
    for (PEId p = 0; p < comp.numPEs(); ++p)
      out.merged.vregsPerPE[p] =
          std::max(out.merged.vregsPerPE[p], phys.vregsPerPE[p]);
    out.merged.cboxSlotsUsed =
        std::max(out.merged.cboxSlotsUsed, phys.cboxSlotsUsed);

    out.placements.push_back(std::move(placement));
    offset += phys.length;
  }
  out.merged.length = offset;
  requireValidSchedule(out.merged, "packSchedules", &comp);
  return out;
}

}  // namespace cgra
