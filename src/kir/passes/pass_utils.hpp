// Shared infrastructure for the frontend pass pipeline: the one structural
// rewriter every pass builds through, construct scans used to skip passes
// whose input lacks their construct (keeping untouched kernels byte-stable),
// and the IR size statistics helpers.
//
// A pass states only the constructs it changes. It hands the Cloner a
// statement hook and/or an expression hook; the Cloner asks the hook before
// copying each node and copies every node the hook declines (kNoStmt /
// kNoExpr) child by child through the FunctionBuilder, renaming locals. A
// hook that rewrites a node recurses into the node's children through
// stmt()/expr(), so nested constructs meet the same hook.
#pragma once

#include <functional>
#include <vector>

#include "kir/kir.hpp"

namespace cgra::kir {

/// Rewrites the nodes of `src` into `dst`, renaming locals through
/// `localMap`.
class Cloner {
public:
  using StmtHook = std::function<StmtId(StmtId, Cloner&)>;
  using ExprHook = std::function<ExprId(ExprId, Cloner&)>;

  Cloner(const Function& src, Function& dst, std::vector<LocalId> localMap,
         StmtHook onStmt = {}, ExprHook onExpr = {});

  /// The hook's rewrite of the subtree at `id`, else copyStmt / copyExpr.
  StmtId stmt(StmtId id);
  ExprId expr(ExprId id);
  /// Copies node `id` itself, rewriting its children (in source order)
  /// through stmt() / expr().
  StmtId copyStmt(StmtId id);
  ExprId copyExpr(ExprId id);

  LocalId local(LocalId srcLocal) const { return localMap_[srcLocal]; }
  /// Builds into `dst`.
  FunctionBuilder& build() { return build_; }

private:
  StmtId optionalStmt(StmtId id) { return id == kNoStmt ? kNoStmt : stmt(id); }

  const Function& src_;
  FunctionBuilder build_;
  std::vector<LocalId> localMap_;
  StmtHook onStmt_;
  ExprHook onExpr_;
};

/// Re-declares every local of `fn` in `dst` and returns the identity map.
std::vector<LocalId> identityMap(const Function& fn, Function& dst);

/// Rewrites `fn` into a new function of the same name through a Cloner
/// with the given hooks (the locals of `fn` keep their ids; a hook declares
/// any new ones after them) and validates the result.
Function rewriteFunction(const Function& fn, Cloner::StmtHook onStmt,
                         Cloner::ExprHook onExpr = {});

/// True when the subtree rooted at `root` contains a statement of `kind`.
bool containsStmtKind(const Function& fn, StmtId root, StmtKind kind);
/// True when the function contains a statement of the given kind.
bool containsStmtKind(const Function& fn, StmtKind kind);
/// True when the function contains an expression of the given kind
/// (reachable from the body).
bool containsExprKind(const Function& fn, ExprKind kind);

/// Statistics helper: number of expression nodes reachable from the body.
std::size_t countExprNodes(const Function& fn);
/// Statistics helper: number of statements reachable from the body.
std::size_t countStmtNodes(const Function& fn);

}  // namespace cgra::kir
