#include "kir/passes/cse_pass.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "kir/passes/pass_utils.hpp"

namespace cgra::kir {

namespace {

/// Canonical key of a pure expression over versioned locals; empty when the
/// expression is not CSE-eligible (contains an array load or a short-circuit
/// operator — hoisting the latter would force evaluation of the lazy side).
std::string exprKey(const Function& fn, ExprId id,
                    const std::map<LocalId, unsigned>& versions) {
  const Expr& e = fn.expr(id);
  switch (e.kind) {
    case ExprKind::Const: return "C" + std::to_string(e.value);
    case ExprKind::Local: {
      const auto it = versions.find(e.local);
      const unsigned v = it == versions.end() ? 0 : it->second;
      return "L" + std::to_string(e.local) + "v" + std::to_string(v);
    }
    case ExprKind::Unary: {
      const std::string a = exprKey(fn, e.lhs, versions);
      return a.empty() ? "" : "N(" + a + ")";
    }
    case ExprKind::Binary:
    case ExprKind::Compare: {
      const std::string a = exprKey(fn, e.lhs, versions);
      const std::string b = exprKey(fn, e.rhs, versions);
      if (a.empty() || b.empty()) return "";
      return std::string(opName(e.op)) + "(" + a + "," + b + ")";
    }
    case ExprKind::ArrayLoad: return "";
    case ExprKind::LogicalAnd:
    case ExprKind::LogicalOr: return "";
  }
  CGRA_UNREACHABLE("bad expr kind");
}

bool hoistable(const Function& fn, ExprId id) {
  const ExprKind k = fn.expr(id).kind;
  return k == ExprKind::Binary || k == ExprKind::Unary;
}

/// One statement list's CSE state while its statements are rebuilt.
struct RunState {
  std::map<LocalId, unsigned> versions;
  unsigned runId = 0;
  std::map<std::string, LocalId> hoisted;  ///< key → temp local

  /// exprKey prefixed with the straight-line run index, so occurrences in
  /// different runs (separated by control flow) never merge; empty when
  /// the expression is not eligible.
  std::string key(const Function& fn, ExprId id) const {
    const std::string k = exprKey(fn, id, versions);
    return k.empty() ? k : "R" + std::to_string(runId) + ":" + k;
  }
};

struct Cse {
  const Function& src;
  unsigned tempCounter = 0;
  RunState* live = nullptr;  ///< the list being rebuilt, if any

  bool isStraight(StmtId id) const {
    const StmtKind k = src.stmt(id).kind;
    return k == StmtKind::Assign || k == StmtKind::ArrayStore;
  }

  /// Expression hook: a hoisted subtree becomes a read of its temp.
  ExprId reuse(ExprId id, Cloner& cl) const {
    if (!live || live->hoisted.empty() || !hoistable(src, id)) return kNoExpr;
    const auto it = live->hoisted.find(live->key(src, id));
    return it == live->hoisted.end() ? kNoExpr : cl.build().use(it->second);
  }

  /// Statement hook: CSE runs over the children of every Block.
  StmtId block(StmtId id, Cloner& cl) {
    const Stmt& s = src.stmt(id);
    if (s.kind != StmtKind::Block) return kNoStmt;
    RunState st;
    RunState* outer = std::exchange(live, &st);
    std::vector<StmtId> stmts = run(s.stmts, st, cl);
    live = outer;
    return cl.build().block(std::move(stmts));
  }

  std::vector<StmtId> run(const std::vector<StmtId>& stmts, RunState& st,
                          Cloner& cl);
};

std::vector<StmtId> Cse::run(const std::vector<StmtId>& stmts, RunState& st,
                             Cloner& cl) {
  // Pass 1: count keys of hoistable subexpressions within straight-line runs
  // of Assign/ArrayStore. Control flow flushes the run.
  struct Info {
    unsigned count = 0;
    std::size_t firstStmt = 0;
    ExprId expr = kNoExpr;
  };
  std::map<std::string, Info> table;

  auto countExpr = [&](ExprId id, std::size_t stmtIdx, auto&& self) -> void {
    const Expr& e = src.expr(id);
    if (e.lhs != kNoExpr) self(e.lhs, stmtIdx, self);
    if (e.rhs != kNoExpr) self(e.rhs, stmtIdx, self);
    if (!hoistable(src, id)) return;
    const std::string key = st.key(src, id);
    if (key.empty()) return;
    ++table.try_emplace(key, Info{0, stmtIdx, id}).first->second.count;
  };

  for (std::size_t i = 0; i < stmts.size(); ++i) {
    const Stmt& s = src.stmt(stmts[i]);
    if (!isStraight(stmts[i])) {
      ++st.runId;
      st.versions.clear();
      continue;
    }
    if (s.kind == StmtKind::Assign) {
      countExpr(s.value, i, countExpr);
      ++st.versions[s.target];
    } else {
      countExpr(s.handle, i, countExpr);
      countExpr(s.index, i, countExpr);
      countExpr(s.value, i, countExpr);
    }
  }

  // Pass 2: rebuild statements; maintain versions again; emit temp
  // assignments right before the first statement using the key.
  std::vector<StmtId> result;
  st.versions.clear();
  st.runId = 0;

  // Emits hoists scheduled for statement index i (keys whose first
  // occurrence is i and count ≥ 2), smallest subexpressions first so larger
  // hoists can reuse smaller temps.
  auto emitHoists = [&](std::size_t i) {
    std::vector<std::pair<std::string, Info>> due;
    for (const auto& [key, info] : table)
      if (info.count >= 2 && info.firstStmt == i && !st.hoisted.contains(key))
        due.emplace_back(key, info);
    std::sort(due.begin(), due.end(), [](const auto& a, const auto& b) {
      return a.first.size() < b.first.size();
    });
    for (const auto& [key, info] : due) {
      const LocalId temp =
          cl.build().localVar("$cse" + std::to_string(tempCounter++));
      // The hoisted value may reuse earlier hoists.
      result.push_back(cl.build().assign(temp, cl.expr(info.expr)));
      st.hoisted[key] = temp;
    }
  };

  for (std::size_t i = 0; i < stmts.size(); ++i) {
    const Stmt& s = src.stmt(stmts[i]);
    if (!isStraight(stmts[i])) {
      ++st.runId;
      st.versions.clear();
      st.hoisted.clear();
      result.push_back(cl.stmt(stmts[i]));
      continue;
    }
    emitHoists(i);
    result.push_back(cl.stmt(stmts[i]));
    if (s.kind == StmtKind::Assign) {
      ++st.versions[s.target];
      // Temps derived from the overwritten local are now stale.
      std::erase_if(st.hoisted, [&](const auto& kv) {
        return kv.first.find("L" + std::to_string(s.target) + "v") !=
               std::string::npos;
      });
    }
  }
  return result;
}

}  // namespace

Function eliminateCommonSubexpressions(const Function& fn) {
  Cse cse{fn};
  return rewriteFunction(
      fn, [&](StmtId id, Cloner& cl) { return cse.block(id, cl); },
      [&](ExprId id, Cloner& cl) { return cse.reuse(id, cl); });
}

}  // namespace cgra::kir
