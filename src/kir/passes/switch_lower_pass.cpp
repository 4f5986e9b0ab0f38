#include "kir/passes/switch_lower_pass.hpp"

#include <algorithm>
#include <string>
#include <vector>

#include "kir/passes/pass_utils.hpp"

namespace cgra::kir {

namespace {

/// Bucket dispatch kicks in at this case count under SwitchStrategy::Auto.
constexpr std::size_t kAutoBucketThreshold = 6;

struct SwitchLowerer {
  const Function& src;
  SwitchStrategy strategy;
  unsigned tempCounter = 0;

  /// Linear strategy: if (sw == v0) arm0 else if (sw == v1) arm1 ... else
  /// default — the ladder follows declaration order.
  StmtId lowerLinear(const Stmt& s, LocalId sw, StmtId defaultArm,
                     Cloner& cl) {
    FunctionBuilder& b = cl.build();
    StmtId chain = defaultArm;  // may be kNoStmt
    for (std::size_t i = s.stmts.size(); i-- > 0;) {
      const ExprId eq = b.eq(b.use(sw), b.cint(s.caseValues[i]));
      chain = b.ifElse(eq, cl.stmt(s.stmts[i]), chain);
    }
    return chain;
  }

  /// Bucket strategy: binary range tree over the sorted case values, with
  /// equality tests at the leaves. `hit` (kNoHit when there is no default
  /// arm) is set when an arm runs so the default can be appended once,
  /// outside the tree.
  static constexpr LocalId kNoHit = static_cast<LocalId>(-1);

  StmtId lowerBucketTree(const Stmt& s, LocalId sw, LocalId hit,
                         const std::vector<std::size_t>& order,
                         std::size_t lo, std::size_t hi, Cloner& cl) {
    FunctionBuilder& b = cl.build();
    if (hi - lo == 1) {
      const std::size_t armIdx = order[lo];
      const ExprId eq = b.eq(b.use(sw), b.cint(s.caseValues[armIdx]));
      if (hit == kNoHit) return b.ifElse(eq, cl.stmt(s.stmts[armIdx]));
      return b.ifElse(
          eq, b.block({cl.stmt(s.stmts[armIdx]), b.assign(hit, b.cint(1))}));
    }
    const std::size_t mid = lo + (hi - lo) / 2;
    const ExprId lt = b.lt(b.use(sw), b.cint(s.caseValues[order[mid]]));
    return b.ifElse(lt, lowerBucketTree(s, sw, hit, order, lo, mid, cl),
                    lowerBucketTree(s, sw, hit, order, mid, hi, cl));
  }

  StmtId lowerSwitch(StmtId id, Cloner& cl) {
    const Stmt& s = src.stmt(id);
    if (s.kind != StmtKind::Switch) return kNoStmt;
    FunctionBuilder& b = cl.build();
    const bool bucket =
        strategy == SwitchStrategy::Bucket ||
        (strategy == SwitchStrategy::Auto &&
         s.stmts.size() >= kAutoBucketThreshold);
    const unsigned n = tempCounter++;

    // Evaluate the scrutinee exactly once.
    const LocalId sw = b.localVar("$sw" + std::to_string(n));
    std::vector<StmtId> seq{b.assign(sw, cl.expr(s.cond))};

    const StmtId defaultArm = s.body == kNoStmt ? kNoStmt : cl.stmt(s.body);

    if (s.stmts.empty()) {
      // Degenerate switch: only a default arm (or nothing at all).
      if (defaultArm != kNoStmt) seq.push_back(defaultArm);
      return b.block(std::move(seq));
    }

    if (!bucket) {
      seq.push_back(lowerLinear(s, sw, defaultArm, cl));
      return b.block(std::move(seq));
    }

    std::vector<std::size_t> order(s.stmts.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      return s.caseValues[x] < s.caseValues[y];
    });

    if (defaultArm == kNoStmt) {
      seq.push_back(
          lowerBucketTree(s, sw, kNoHit, order, 0, order.size(), cl));
      return b.block(std::move(seq));
    }
    const LocalId hit = b.localVar("$swhit" + std::to_string(n));
    seq.push_back(b.assign(hit, b.cint(0)));
    seq.push_back(lowerBucketTree(s, sw, hit, order, 0, order.size(), cl));
    seq.push_back(b.ifElse(b.eq(b.use(hit), b.cint(0)), defaultArm));
    return b.block(std::move(seq));
  }
};

}  // namespace

Function lowerSwitches(const Function& fn, SwitchStrategy strategy) {
  SwitchLowerer lowerer{fn, strategy};
  return rewriteFunction(fn, [&](StmtId id, Cloner& cl) {
    return lowerer.lowerSwitch(id, cl);
  });
}

}  // namespace cgra::kir
