#include "kir/passes/shortcircuit_pass.hpp"

#include <string>
#include <utility>
#include <vector>

#include "kir/passes/pass_utils.hpp"

namespace cgra::kir {

namespace {

bool exprHasSc(const Function& fn, ExprId id) {
  const Expr& e = fn.expr(id);
  if (e.kind == ExprKind::LogicalAnd || e.kind == ExprKind::LogicalOr)
    return true;
  return (e.lhs != kNoExpr && exprHasSc(fn, e.lhs)) ||
         (e.rhs != kNoExpr && exprHasSc(fn, e.rhs));
}

struct ScLowerer {
  const Function& src;
  unsigned tempCounter = 0;
  /// Where the expression being rewritten emits its prelude statements.
  std::vector<StmtId>* prelude = nullptr;

  /// Branch condition "x is truthy" — comparisons pass through, anything
  /// else is wrapped in `!= 0`.
  static ExprId truthy(FunctionBuilder& b, ExprId x) {
    if (b.fn().expr(x).kind == ExprKind::Compare) return x;
    return b.ne(x, b.cint(0));
  }

  static ExprId falsy(FunctionBuilder& b, ExprId x) {
    return b.eq(x, b.cint(0));
  }

  /// Rewrites `id` (a src expression) with its prelude going to `seq`.
  ExprId lowerExprInto(ExprId id, std::vector<StmtId>& seq, Cloner& cl) {
    std::vector<StmtId>* outer = std::exchange(prelude, &seq);
    const ExprId out = cl.expr(id);
    prelude = outer;
    return out;
  }

  /// Expression hook: `&&` / `||` become a 0/1 temp set by nested ifs.
  ExprId lowerExpr(ExprId id, Cloner& cl) {
    const Expr& e = src.expr(id);
    const bool isAnd = e.kind == ExprKind::LogicalAnd;
    if (!isAnd && e.kind != ExprKind::LogicalOr) return kNoExpr;
    FunctionBuilder& b = cl.build();
    // Each operand that fails to decide the result moves on to the next:
    // a true one for `&&`, a false one for `||`.
    const auto undecided = [&](ExprId x) {
      return isAnd ? truthy(b, x) : falsy(b, x);
    };
    const LocalId t = b.localVar("$sc" + std::to_string(tempCounter++));
    std::vector<StmtId>& seq = *prelude;
    const ExprId lhs = cl.expr(e.lhs);
    seq.push_back(b.assign(t, b.cint(isAnd ? 0 : 1)));
    std::vector<StmtId> lazy;
    const ExprId rhs = lowerExprInto(e.rhs, lazy, cl);
    lazy.push_back(
        b.ifElse(undecided(rhs), b.assign(t, b.cint(isAnd ? 1 : 0))));
    seq.push_back(b.ifElse(undecided(lhs), b.block(std::move(lazy))));
    return b.use(t);
  }

  /// Appends the rewrite of `id` to `seq`, its preludes first.
  void lowerStmtInto(StmtId id, std::vector<StmtId>& seq, Cloner& cl) {
    const Stmt& s = src.stmt(id);
    if (s.kind == StmtKind::Block || isLazyLoop(s)) {
      seq.push_back(lowerStmt(id, cl));
      return;
    }
    std::vector<StmtId>* outer = std::exchange(prelude, &seq);
    const StmtId out = cl.copyStmt(id);
    prelude = outer;
    seq.push_back(out);
  }

  bool isLazyLoop(const Stmt& s) const {
    return s.kind == StmtKind::While && exprHasSc(src, s.cond);
  }

  /// Statement hook: rewrites `id` into exactly one statement (a block when
  /// preludes precede it).
  StmtId lowerStmt(StmtId id, Cloner& cl) {
    const Stmt& s = src.stmt(id);
    FunctionBuilder& b = cl.build();
    std::vector<StmtId> seq;
    if (s.kind == StmtKind::Block) {
      for (StmtId c : s.stmts) lowerStmtInto(c, seq, cl);
      return b.block(std::move(seq));
    }
    if (isLazyLoop(s)) {
      // Lazy condition: re-evaluate at the top of every iteration.
      const ExprId c = lowerExprInto(s.cond, seq, cl);
      seq.push_back(b.ifElse(falsy(b, c), b.breakLoop()));
      lowerStmtInto(s.body, seq, cl);
      return b.whileLoop(b.ne(b.cint(1), b.cint(0)), b.block(std::move(seq)));
    }
    lowerStmtInto(id, seq, cl);
    return seq.size() == 1 ? seq[0] : b.block(std::move(seq));
  }
};

}  // namespace

Function lowerShortCircuit(const Function& fn) {
  ScLowerer lowerer{fn};
  return rewriteFunction(
      fn, [&](StmtId id, Cloner& cl) { return lowerer.lowerStmt(id, cl); },
      [&](ExprId id, Cloner& cl) { return lowerer.lowerExpr(id, cl); });
}

}  // namespace cgra::kir
