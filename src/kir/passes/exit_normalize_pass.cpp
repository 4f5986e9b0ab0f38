#include "kir/passes/exit_normalize_pass.hpp"

#include <string>
#include <utility>
#include <vector>

#include "kir/passes/pass_utils.hpp"

namespace cgra::kir {

namespace {

constexpr LocalId kNoLocal = static_cast<LocalId>(-1);

/// Which abort flags a (transformed) statement may set at the current
/// nesting level.
enum : unsigned { kRet = 1u, kBrk = 2u, kCnt = 4u };

struct LoopCtx {
  LocalId brk = kNoLocal;
  LocalId cnt = kNoLocal;
};

/// True when the subtree contains a Break/Continue binding to the current
/// loop level, i.e. not nested inside an inner While (switch arms do not
/// capture break — it always binds to the enclosing loop).
bool exitsAtLevel(const Function& fn, StmtId id, StmtKind kind) {
  const Stmt& s = fn.stmt(id);
  if (s.kind == kind) return true;
  switch (s.kind) {
    case StmtKind::If:
      return exitsAtLevel(fn, s.thenBlock, kind) ||
             (s.elseBlock != kNoStmt && exitsAtLevel(fn, s.elseBlock, kind));
    case StmtKind::Block:
      for (StmtId c : s.stmts)
        if (exitsAtLevel(fn, c, kind)) return true;
      return false;
    case StmtKind::Switch:
      for (StmtId arm : s.stmts)
        if (exitsAtLevel(fn, arm, kind)) return true;
      return s.body != kNoStmt && exitsAtLevel(fn, s.body, kind);
    default: return false;  // While starts a new level; leaves cannot exit
  }
}

struct ExitNormalizer {
  const Function& src;
  LocalId retFlag = kNoLocal;
  unsigned loopCounter = 0;
  std::vector<LoopCtx> loops{};

  /// The flags the rewrite of `id` may set at the current loop level.
  unsigned flagsSetBy(StmtId id) const {
    return (exitsAtLevel(src, id, StmtKind::Break) ? kBrk : 0u) |
           (exitsAtLevel(src, id, StmtKind::Continue) ? kCnt : 0u) |
           (containsStmtKind(src, id, StmtKind::Return) ? kRet : 0u);
  }

  /// Bitwise OR of the abort flags named by `mask` (all flags hold 0 or 1,
  /// so IOR is an exact disjunction).
  ExprId flagsOr(unsigned mask, FunctionBuilder& b) {
    std::vector<LocalId> flags;
    if (mask & kBrk) flags.push_back(loops.back().brk);
    if (mask & kCnt) flags.push_back(loops.back().cnt);
    if (mask & kRet) flags.push_back(retFlag);
    CGRA_ASSERT(!flags.empty());
    ExprId acc = b.use(flags[0]);
    for (std::size_t i = 1; i < flags.size(); ++i)
      acc = b.bor(acc, b.use(flags[i]));
    return acc;
  }

  ExprId flagsClear(unsigned mask, FunctionBuilder& b) {
    return b.eq(flagsOr(mask, b), b.cint(0));
  }

  /// Rewrites a statement list; after any statement that may set a flag,
  /// the remaining statements are nested under `if (flags == 0)`.
  std::vector<StmtId> transformList(const std::vector<StmtId>& children,
                                    std::size_t from, Cloner& cl) {
    FunctionBuilder& b = cl.build();
    std::vector<StmtId> result;
    for (std::size_t i = from; i < children.size(); ++i) {
      result.push_back(cl.stmt(children[i]));
      if (i + 1 == children.size()) break;
      if (const unsigned m = flagsSetBy(children[i]); m != 0) {
        std::vector<StmtId> rest = transformList(children, i + 1, cl);
        result.push_back(b.ifElse(flagsClear(m, b), b.block(std::move(rest))));
        return result;
      }
    }
    return result;
  }

  StmtId transformLoop(const Stmt& s, Cloner& cl) {
    const bool needBrk = exitsAtLevel(src, s.body, StmtKind::Break);
    const bool needCnt = exitsAtLevel(src, s.body, StmtKind::Continue);
    const bool needRet = containsStmtKind(src, s.body, StmtKind::Return);
    if (!needBrk && !needCnt && !needRet) return kNoStmt;

    FunctionBuilder& b = cl.build();
    const unsigned n = loopCounter++;
    LoopCtx ctx;
    if (needBrk) ctx.brk = b.localVar("$brk" + std::to_string(n));
    if (needCnt) ctx.cnt = b.localVar("$cnt" + std::to_string(n));
    loops.push_back(ctx);
    const StmtId bodyS = cl.stmt(s.body);
    std::vector<StmtId> bodySeq;
    if (needCnt) bodySeq.push_back(b.assign(ctx.cnt, b.cint(0)));
    bodySeq.push_back(bodyS);

    const unsigned exitMask =
        (needBrk ? kBrk : 0u) | (needRet ? kRet : 0u);
    if (exitMask == 0) {
      // Only continue: the original condition still runs every iteration.
      loops.pop_back();
      return b.whileLoop(cl.expr(s.cond), b.block(std::move(bodySeq)));
    }

    // Break or return may abort the loop: hoist the condition into $lcN and
    // only recompute it while the loop is live (a condition with array loads
    // must not be re-evaluated after an exit).
    const LocalId lc = b.localVar("$lc" + std::to_string(n));
    std::vector<StmtId> seq;
    if (needBrk) seq.push_back(b.assign(ctx.brk, b.cint(0)));
    seq.push_back(b.assign(lc, cl.expr(s.cond)));
    bodySeq.push_back(
        b.ifElse(flagsClear(exitMask, b), b.assign(lc, cl.expr(s.cond))));
    const ExprId live =
        b.band(flagsClear(exitMask, b), b.ne(b.use(lc), b.cint(0)));
    seq.push_back(b.whileLoop(live, b.block(std::move(bodySeq))));
    loops.pop_back();
    return b.block(std::move(seq));
  }

  /// Statement hook: exits become flag writes, loops and blocks get guards.
  StmtId transform(StmtId id, Cloner& cl) {
    const Stmt& s = src.stmt(id);
    FunctionBuilder& b = cl.build();
    switch (s.kind) {
      case StmtKind::Break:
        CGRA_ASSERT(!loops.empty() && loops.back().brk != kNoLocal);
        return b.assign(loops.back().brk, b.cint(1));
      case StmtKind::Continue:
        CGRA_ASSERT(!loops.empty() && loops.back().cnt != kNoLocal);
        return b.assign(loops.back().cnt, b.cint(1));
      case StmtKind::Return: {
        CGRA_ASSERT(retFlag != kNoLocal);
        const StmtId setRet = b.assign(retFlag, b.cint(1));
        if (s.value == kNoExpr) return setRet;
        const StmtId setResult = b.assign(cl.local(s.target), cl.expr(s.value));
        return b.block({setResult, setRet});
      }
      case StmtKind::While: return transformLoop(s, cl);
      case StmtKind::Block: return b.block(transformList(s.stmts, 0, cl));
      default: return kNoStmt;
    }
  }
};

}  // namespace

Function normalizeExits(const Function& fn) {
  Function out(fn.name());
  ExitNormalizer norm{fn};
  Cloner cl(fn, out, identityMap(fn, out),
            [&](StmtId id, Cloner& c) { return norm.transform(id, c); });
  FunctionBuilder& b = cl.build();
  if (containsStmtKind(fn, StmtKind::Return)) norm.retFlag = b.localVar("$ret");
  StmtId body = cl.stmt(fn.body());
  if (norm.retFlag != kNoLocal)
    body = b.block({b.assign(norm.retFlag, b.cint(0)), body});
  out.setBody(body);
  out.validate();
  return out;
}

}  // namespace cgra::kir
