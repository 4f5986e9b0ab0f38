#include "sched/scheduler.hpp"

#include <memory>
#include <utility>

#include "arch/arch_model.hpp"
#include "sched/passes/pipeline.hpp"

namespace cgra {

const char* failureReasonName(FailureReason reason) {
  switch (reason) {
    case FailureReason::None: return "none";
    case FailureReason::UnsupportedOp: return "unsupported-op";
    case FailureReason::UnroutableOperand: return "unroutable-operand";
    case FailureReason::ContextBudget: return "context-budget";
    case FailureReason::CBoxCapacity: return "cbox-capacity";
    case FailureReason::Internal: return "internal";
  }
  CGRA_UNREACHABLE("bad FailureReason");
}

const ScheduleReport& ScheduleReport::orThrow() const& {
  if (!ok) throw Error(failure.message);
  return *this;
}

ScheduleReport&& ScheduleReport::orThrow() && {
  if (!ok) throw Error(failure.message);
  return std::move(*this);
}

Scheduler::Scheduler(const Composition& comp, SchedulerOptions opts)
    : comp_(&comp), opts_(opts), model_(ArchModel::get(comp)) {}

ScheduleReport Scheduler::schedule(const ScheduleRequest& request) const {
  CGRA_ASSERT_MSG(request.graph != nullptr,
                  "ScheduleRequest carries no graph");
  std::shared_ptr<Trace> trace;
  if (request.trace.enabled) trace = std::make_shared<Trace>(request.trace);
  ScheduleReport report =
      passes::runPipeline(*model_, *comp_, opts_, *request.graph, trace.get());
  report.trace = std::move(trace);
  return report;
}

}  // namespace cgra
