#include "kir/passes/pipeline.hpp"

#include <utility>

#include "kir/passes/cse_pass.hpp"
#include "kir/passes/exit_normalize_pass.hpp"
#include "kir/passes/inline_pass.hpp"
#include "kir/passes/pass_utils.hpp"
#include "kir/passes/shortcircuit_pass.hpp"
#include "kir/passes/switch_lower_pass.hpp"
#include "kir/passes/unroll_pass.hpp"

namespace cgra::kir {

namespace {

bool containsAnyExit(const Function& fn) {
  return containsStmtKind(fn, StmtKind::Break) ||
         containsStmtKind(fn, StmtKind::Continue) ||
         containsStmtKind(fn, StmtKind::Return);
}

bool containsSc(const Function& fn) {
  return containsExprKind(fn, ExprKind::LogicalAnd) ||
         containsExprKind(fn, ExprKind::LogicalOr);
}

}  // namespace

FrontendResult runFrontendPipeline(const Function& fn,
                                   const FrontendOptions& options,
                                   const Program* program) {
  if (options.unrollFactor > kMaxUnrollFactor)
    throw Error("unroll factor " + std::to_string(options.unrollFactor) +
                " exceeds the limit of " + std::to_string(kMaxUnrollFactor));
  FrontendResult result;
  result.fn = fn;

  auto record = [&](const char* name, bool ran) {
    StageRecord rec;
    rec.name = name;
    rec.ran = ran;
    if (options.captureStages) rec.ir = result.fn.toString();
    result.stages.push_back(std::move(rec));
  };

  if (options.captureStages) record("input", true);

  // 1. Inline. The pass itself demotes callee returns before splicing.
  {
    const bool run = containsStmtKind(result.fn, StmtKind::Call);
    if (run) {
      if (!program)
        throw Error("runFrontendPipeline: function '" + fn.name() +
                    "' contains calls but no Program was provided");
      result.fn = inlineCalls(*program, result.fn);
    }
    record("inline", run);
  }

  // 2. Short-circuit booleans (may introduce breaks — cleaned up next).
  {
    const bool run = containsSc(result.fn);
    if (run) result.fn = lowerShortCircuit(result.fn);
    record("shortcircuit", run);
  }

  // 3. Switch.
  {
    const bool run = containsStmtKind(result.fn, StmtKind::Switch);
    if (run) result.fn = lowerSwitches(result.fn);
    record("switch-lower", run);
  }

  // 4. Exit normalization — after this the IR is structured if/while only.
  {
    const bool run = containsAnyExit(result.fn);
    if (run) result.fn = normalizeExits(result.fn);
    record("exit-normalize", run);
  }

  // 5. CSE — before unroll, matching the historical cse-then-unroll
  // composition the fingerprint corpus pins. (CSE is run-local, so the two
  // orders find the same redundancies; keeping the old order preserves
  // golden outputs.)
  {
    const bool run = options.cse;
    if (run) result.fn = eliminateCommonSubexpressions(result.fn);
    record("cse", run);
  }

  // 6. Unroll — after normalization so replicated bodies carry guard
  // variables instead of duplicated exit edges.
  {
    const bool run = options.unrollFactor >= 2;
    if (run) result.fn = unrollLoops(result.fn, options.unrollFactor);
    record("unroll", run);
  }

  return result;
}

}  // namespace cgra::kir
