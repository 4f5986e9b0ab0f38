// The frontend normalization pipeline — the fixed-order pass sequence that
// takes source-level KIR (calls, short-circuit booleans, switch,
// break/continue/return) down to the structured if/while subset the CDFG
// lowering accepts:
//
//   1. inline          calls spliced in (callee returns demoted first)
//   2. shortcircuit    && / || -> eager control flow over 0/1 temps
//   3. switch-lower    switch -> equality ladder or binary bucket tree
//   4. exit-normalize  break/continue/return -> guard variables
//   5. cse             local common-subexpression elimination
//   6. unroll          partial loop unrolling (after normalization, so
//                      replicated bodies carry guards, not exit edges)
//
// Each stage is skipped when its construct is absent from the input, so a
// kernel that never uses the richer constructs flows through byte-identical
// to the pre-pipeline frontend (golden outputs stay stable).
#pragma once

#include <string>
#include <vector>

#include "kir/kir.hpp"

namespace cgra::kir {

/// Largest accepted unroll factor. unrollLoops nests factor - 1 guarded
/// copies, so an unbounded factor is an unbounded amount of work; the
/// paper unrolls by 2 (§VI-B). One bound for the CLI, sweeps, explore and
/// the compile server.
inline constexpr unsigned kMaxUnrollFactor = 16;

/// Pipeline configuration. The normalization stages always run (each only
/// when its construct is present); the optimization stages (unroll, cse)
/// are off by default. Unrolling covers innermost loops only.
struct FrontendOptions {
  unsigned unrollFactor = 1;    ///< < 2 disables; at most kMaxUnrollFactor
  bool cse = false;
  bool captureStages = false;   ///< record IR text after every stage
};

/// One pipeline stage's outcome (for `cgra-tool kir` and debugging).
struct StageRecord {
  std::string name;  ///< "inline", "shortcircuit", ...
  bool ran = false;  ///< false when skipped (construct absent / disabled)
  std::string ir;    ///< IR text after the stage (captureStages only)
};

struct FrontendResult {
  Function fn;
  std::vector<StageRecord> stages;
};

/// Runs the normalization pipeline on `fn`. `program` is only needed for
/// the inline stage; pass nullptr for call-free functions. The result
/// satisfies `firstIrregularConstruct(result.fn) == nullptr`. Throws
/// cgra::Error when `options.unrollFactor` exceeds kMaxUnrollFactor or when
/// `fn` contains calls and `program` is null.
FrontendResult runFrontendPipeline(const Function& fn,
                                   const FrontendOptions& options = {},
                                   const Program* program = nullptr);

}  // namespace cgra::kir
