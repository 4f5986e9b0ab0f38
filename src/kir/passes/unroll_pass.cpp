#include "kir/passes/unroll_pass.hpp"

#include "kir/passes/pass_utils.hpp"

namespace cgra::kir {

Function unrollLoops(const Function& fn, unsigned factor, bool innermostOnly) {
  // While nodes meeting the criterion get their body replicated `factor`
  // times, each repetition after the first guarded by a fresh evaluation of
  // the loop condition.
  return rewriteFunction(fn, [&](StmtId id, Cloner& cl) -> StmtId {
    const Stmt& s = fn.stmt(id);
    if (factor < 2 || s.kind != StmtKind::While ||
        (innermostOnly && containsStmtKind(fn, s.body, StmtKind::While)))
      return kNoStmt;
    FunctionBuilder& b = cl.build();
    // innermost copies first: if (c) { B } nested (factor-1) deep.
    StmtId tail = kNoStmt;
    for (unsigned rep = factor; rep >= 2; --rep) {
      std::vector<StmtId> seq{cl.stmt(s.body)};
      if (tail != kNoStmt) seq.push_back(tail);
      const StmtId blk = b.block(std::move(seq));
      tail = b.ifElse(cl.expr(s.cond), blk);
    }
    const StmtId newBody = b.block({cl.stmt(s.body), tail});
    return b.whileLoop(cl.expr(s.cond), newBody);
  });
}

}  // namespace cgra::kir
