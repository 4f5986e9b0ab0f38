#include "kir/passes/pass_utils.hpp"

namespace cgra::kir {

Cloner::Cloner(const Function& src, Function& dst,
               std::vector<LocalId> localMap, StmtHook onStmt, ExprHook onExpr)
    : src_(src),
      build_(dst),
      localMap_(std::move(localMap)),
      onStmt_(std::move(onStmt)),
      onExpr_(std::move(onExpr)) {}

StmtId Cloner::stmt(StmtId id) {
  if (onStmt_)
    if (const StmtId out = onStmt_(id, *this); out != kNoStmt) return out;
  return copyStmt(id);
}

ExprId Cloner::expr(ExprId id) {
  if (onExpr_)
    if (const ExprId out = onExpr_(id, *this); out != kNoExpr) return out;
  return copyExpr(id);
}

ExprId Cloner::copyExpr(ExprId id) {
  const Expr& e = src_.expr(id);
  switch (e.kind) {
    case ExprKind::Const: return build_.cint(e.value);
    case ExprKind::Local: return build_.use(local(e.local));
    case ExprKind::Unary: return build_.neg(expr(e.lhs));
    default: break;
  }
  const ExprId lhs = expr(e.lhs);
  const ExprId rhs = expr(e.rhs);
  if (e.kind == ExprKind::ArrayLoad) return build_.load(lhs, rhs);
  return build_.binary(e.kind, e.op, lhs, rhs);
}

StmtId Cloner::copyStmt(StmtId id) {
  const Stmt& s = src_.stmt(id);
  switch (s.kind) {
    case StmtKind::Assign: return build_.assign(local(s.target), expr(s.value));
    case StmtKind::ArrayStore: {
      const ExprId handle = expr(s.handle);
      const ExprId index = expr(s.index);
      return build_.arrayStore(handle, index, expr(s.value));
    }
    case StmtKind::If: {
      const ExprId cond = expr(s.cond);
      const StmtId thenB = stmt(s.thenBlock);
      return build_.ifElse(cond, thenB, optionalStmt(s.elseBlock));
    }
    case StmtKind::While: {
      const ExprId cond = expr(s.cond);
      return build_.whileLoop(cond, stmt(s.body));
    }
    case StmtKind::Call: {
      std::vector<ExprId> args;
      for (ExprId a : s.args) args.push_back(expr(a));
      return build_.call(local(s.target), s.callee, std::move(args));
    }
    case StmtKind::Block: {
      std::vector<StmtId> stmts;
      for (StmtId c : s.stmts) stmts.push_back(stmt(c));
      return build_.block(std::move(stmts));
    }
    case StmtKind::Break: return build_.breakLoop();
    case StmtKind::Continue: return build_.continueLoop();
    case StmtKind::Return:
      if (s.value == kNoExpr) return build_.ret();
      return build_.ret(local(s.target), expr(s.value));
    case StmtKind::Switch: {
      const ExprId cond = expr(s.cond);
      std::vector<StmtId> arms;
      for (StmtId arm : s.stmts) arms.push_back(stmt(arm));
      return build_.switchStmt(cond, s.caseValues, std::move(arms),
                               optionalStmt(s.body));
    }
  }
  CGRA_UNREACHABLE("bad statement kind");
}

std::vector<LocalId> identityMap(const Function& fn, Function& dst) {
  std::vector<LocalId> map;
  map.reserve(fn.numLocals());
  for (LocalId i = 0; i < fn.numLocals(); ++i) {
    const LocalDecl& l = fn.local(i);
    map.push_back(dst.addLocal(l.name, l.isParameter));
  }
  return map;
}

Function rewriteFunction(const Function& fn, Cloner::StmtHook onStmt,
                         Cloner::ExprHook onExpr) {
  Function out(fn.name());
  Cloner cl(fn, out, identityMap(fn, out), std::move(onStmt),
            std::move(onExpr));
  out.setBody(cl.stmt(fn.body()));
  out.validate();
  return out;
}

namespace {

/// Walks every statement (and optionally every expression) under `id`.
void walkStmts(const Function& fn, StmtId id,
               const std::function<void(const Stmt&)>& onStmt,
               const std::function<void(const Expr&)>& onExpr) {
  std::function<void(ExprId)> walkE = [&](ExprId eid) {
    const Expr& e = fn.expr(eid);
    if (onExpr) onExpr(e);
    if (e.lhs != kNoExpr) walkE(e.lhs);
    if (e.rhs != kNoExpr) walkE(e.rhs);
  };
  std::function<void(StmtId)> walkS = [&](StmtId sid) {
    const Stmt& s = fn.stmt(sid);
    if (onStmt) onStmt(s);
    switch (s.kind) {
      case StmtKind::Assign:
        if (onExpr) walkE(s.value);
        break;
      case StmtKind::ArrayStore:
        if (onExpr) {
          walkE(s.handle);
          walkE(s.index);
          walkE(s.value);
        }
        break;
      case StmtKind::If:
        if (onExpr) walkE(s.cond);
        walkS(s.thenBlock);
        if (s.elseBlock != kNoStmt) walkS(s.elseBlock);
        break;
      case StmtKind::While:
        if (onExpr) walkE(s.cond);
        walkS(s.body);
        break;
      case StmtKind::Call:
        if (onExpr)
          for (ExprId a : s.args) walkE(a);
        break;
      case StmtKind::Block:
        for (StmtId c : s.stmts) walkS(c);
        break;
      case StmtKind::Break:
      case StmtKind::Continue:
        break;
      case StmtKind::Return:
        if (onExpr && s.value != kNoExpr) walkE(s.value);
        break;
      case StmtKind::Switch:
        if (onExpr) walkE(s.cond);
        for (StmtId arm : s.stmts) walkS(arm);
        if (s.body != kNoStmt) walkS(s.body);
        break;
    }
  };
  walkS(id);
}

}  // namespace

bool containsStmtKind(const Function& fn, StmtId root, StmtKind kind) {
  bool found = false;
  walkStmts(fn, root,
            [&](const Stmt& s) { found = found || s.kind == kind; }, nullptr);
  return found;
}

bool containsStmtKind(const Function& fn, StmtKind kind) {
  return fn.body() != kNoStmt && containsStmtKind(fn, fn.body(), kind);
}

bool containsExprKind(const Function& fn, ExprKind kind) {
  if (fn.body() == kNoStmt) return false;
  bool found = false;
  walkStmts(fn, fn.body(), nullptr,
            [&](const Expr& e) { found = found || e.kind == kind; });
  return found;
}

std::size_t countExprNodes(const Function& fn) {
  std::size_t count = 0;
  walkStmts(fn, fn.body(), nullptr, [&](const Expr&) { ++count; });
  return count;
}

std::size_t countStmtNodes(const Function& fn) {
  std::size_t count = 0;
  walkStmts(fn, fn.body(), [&](const Stmt&) { ++count; }, nullptr);
  return count;
}

}  // namespace cgra::kir
