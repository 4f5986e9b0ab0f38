#include "kir/lower_bytecode.hpp"

#include <functional>

namespace cgra::kir {

namespace {

class Codegen {
public:
  explicit Codegen(const Function& fn) : fn_(fn) {
    out_.name = fn.name();
    out_.numLocals = static_cast<unsigned>(fn.numLocals());
  }

  BytecodeFunction finish() {
    emitStmt(fn_.body());
    const std::int32_t end = here();
    emit(Bc::HALT);
    // `return` anywhere in the body jumps straight to the terminal HALT.
    for (std::size_t p : returnPatches_) patch(p, end);
    return std::move(out_);
  }

private:
  std::size_t emit(Bc op, std::int32_t arg = 0) {
    out_.code.push_back(BcInstr{op, arg});
    return out_.code.size() - 1;
  }

  void patch(std::size_t at, std::int32_t target) {
    out_.code[at].arg = target;
  }

  std::int32_t here() const { return static_cast<std::int32_t>(out_.code.size()); }

  void emitExpr(ExprId id) {
    const Expr& e = fn_.expr(id);
    switch (e.kind) {
      case ExprKind::Const:
        emit(Bc::ICONST, e.value);
        break;
      case ExprKind::Local:
        emit(Bc::ILOAD, static_cast<std::int32_t>(e.local));
        break;
      case ExprKind::Unary:
        emitExpr(e.lhs);
        emit(Bc::INEG);
        break;
      case ExprKind::Binary:
        emitExpr(e.lhs);
        emitExpr(e.rhs);
        emit(bcFor(e.op));
        break;
      case ExprKind::Compare: {
        // Materialize the 0/1 value via a branch, like javac would.
        emitExpr(e.lhs);
        emitExpr(e.rhs);
        const std::size_t branch = emit(branchFor(e.op), 0);
        emit(Bc::ICONST, 0);
        const std::size_t jumpEnd = emit(Bc::GOTO, 0);
        patch(branch, here());
        emit(Bc::ICONST, 1);
        patch(jumpEnd, here());
        break;
      }
      case ExprKind::ArrayLoad:
        emitExpr(e.lhs);
        emitExpr(e.rhs);
        emit(Bc::IALOAD);
        break;
      case ExprKind::LogicalAnd: {
        // Short-circuit: the rhs only runs when the lhs is true.
        const std::size_t lhsFalse = emitCondJumpIfFalse(e.lhs);
        const std::size_t rhsFalse = emitCondJumpIfFalse(e.rhs);
        emit(Bc::ICONST, 1);
        const std::size_t jumpEnd = emit(Bc::GOTO, 0);
        patch(lhsFalse, here());
        patch(rhsFalse, here());
        emit(Bc::ICONST, 0);
        patch(jumpEnd, here());
        break;
      }
      case ExprKind::LogicalOr: {
        // Short-circuit: the rhs only runs when the lhs is false.
        const std::size_t lhsFalse = emitCondJumpIfFalse(e.lhs);
        emit(Bc::ICONST, 1);
        const std::size_t jumpEnd1 = emit(Bc::GOTO, 0);
        patch(lhsFalse, here());
        const std::size_t rhsFalse = emitCondJumpIfFalse(e.rhs);
        emit(Bc::ICONST, 1);
        const std::size_t jumpEnd2 = emit(Bc::GOTO, 0);
        patch(rhsFalse, here());
        emit(Bc::ICONST, 0);
        patch(jumpEnd1, here());
        patch(jumpEnd2, here());
        break;
      }
    }
  }

  /// Emits a conditional jump taken when `cond` is FALSE; returns the
  /// instruction index to patch with the jump target.
  std::size_t emitCondJumpIfFalse(ExprId cond) {
    const Expr& e = fn_.expr(cond);
    if (e.kind == ExprKind::Compare) {
      emitExpr(e.lhs);
      emitExpr(e.rhs);
      return emit(branchFor(e.op, /*taken=*/false), 0);
    }
    // Generic integer condition: false when == 0.
    emitExpr(cond);
    emit(Bc::ICONST, 0);
    return emit(Bc::IF_ICMPEQ, 0);
  }

  void emitStmt(StmtId id) {
    const Stmt& s = fn_.stmt(id);
    switch (s.kind) {
      case StmtKind::Assign:
        emitExpr(s.value);
        emit(Bc::ISTORE, static_cast<std::int32_t>(s.target));
        break;
      case StmtKind::ArrayStore:
        emitExpr(s.handle);
        emitExpr(s.index);
        emitExpr(s.value);
        emit(Bc::IASTORE);
        break;
      case StmtKind::If: {
        const std::size_t skipThen = emitCondJumpIfFalse(s.cond);
        emitStmt(s.thenBlock);
        if (s.elseBlock != kNoStmt) {
          const std::size_t skipElse = emit(Bc::GOTO, 0);
          patch(skipThen, here());
          emitStmt(s.elseBlock);
          patch(skipElse, here());
        } else {
          patch(skipThen, here());
        }
        break;
      }
      case StmtKind::While: {
        const std::int32_t loopTop = here();
        const std::size_t exitJump = emitCondJumpIfFalse(s.cond);
        loops_.push_back(LoopCtx{loopTop, {}});
        emitStmt(s.body);
        emit(Bc::GOTO, loopTop);
        patch(exitJump, here());
        for (std::size_t p : loops_.back().breakPatches) patch(p, here());
        loops_.pop_back();
        break;
      }
      case StmtKind::Call:
        throw Error("lowerToBytecode: inline calls before lowering (" +
                    fn_.name() + ")");
      case StmtKind::Block:
        for (StmtId c : s.stmts) emitStmt(c);
        break;
      case StmtKind::Break:
        if (loops_.empty())
          throw Error("lowerToBytecode: break outside of a loop");
        loops_.back().breakPatches.push_back(emit(Bc::GOTO, 0));
        break;
      case StmtKind::Continue:
        if (loops_.empty())
          throw Error("lowerToBytecode: continue outside of a loop");
        emit(Bc::GOTO, loops_.back().top);
        break;
      case StmtKind::Return:
        if (s.value != kNoExpr) {
          emitExpr(s.value);
          emit(Bc::ISTORE, static_cast<std::int32_t>(s.target));
        }
        returnPatches_.push_back(emit(Bc::GOTO, 0));
        break;
      case StmtKind::Switch: {
        // Dispatch: store the scrutinee once, then a compare chain (the
        // shared scratch local is dead once an arm is entered, so nested
        // switches can reuse it).
        if (switchTemp_ < 0) {
          switchTemp_ = static_cast<std::int32_t>(out_.numLocals);
          ++out_.numLocals;
        }
        emitExpr(s.cond);
        emit(Bc::ISTORE, switchTemp_);
        std::vector<std::size_t> armJumps;
        for (std::int32_t v : s.caseValues) {
          emit(Bc::ILOAD, switchTemp_);
          emit(Bc::ICONST, v);
          armJumps.push_back(emit(Bc::IF_ICMPEQ, 0));
        }
        const std::size_t noMatch = emit(Bc::GOTO, 0);
        std::vector<std::size_t> endJumps;
        for (std::size_t i = 0; i < s.stmts.size(); ++i) {
          patch(armJumps[i], here());
          emitStmt(s.stmts[i]);
          endJumps.push_back(emit(Bc::GOTO, 0));
        }
        patch(noMatch, here());
        if (s.body != kNoStmt) emitStmt(s.body);
        for (std::size_t p : endJumps) patch(p, here());
        break;
      }
    }
  }

  struct LoopCtx {
    std::int32_t top;
    std::vector<std::size_t> breakPatches;
  };

  const Function& fn_;
  BytecodeFunction out_;
  std::vector<LoopCtx> loops_;
  std::vector<std::size_t> returnPatches_;
  std::int32_t switchTemp_ = -1;
};

}  // namespace

BytecodeFunction lowerToBytecode(const Function& fn) {
  fn.validate();
  return Codegen(fn).finish();
}

}  // namespace cgra::kir
