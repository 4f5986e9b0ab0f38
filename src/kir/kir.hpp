// Kernel IR: the frontend language of the reproduction.
//
// The paper's frontend is Java bytecode captured by the AMIDAR profiler and
// turned into an instruction graph (Fig. 1). We substitute a small
// structured imperative IR with the same expressive range the scheduler
// needs — assignments, if/else, while/for with data-dependent bounds, array
// load/store through handles, calls (for the method-inlining pass), and the
// irregular control-flow constructs real kernels use: break/continue/return,
// short-circuit && and ||, and switch. The irregular constructs are source
// conveniences: the frontend pipeline (kir/passes/pipeline.hpp) normalizes
// them into plain structured if/while form before CDFG lowering, which
// rejects them.
// Kernels written in KIR are lowered both to the CDFG (CGRA path) and to
// baseline stack bytecode (AMIDAR path), so speedups compare the same
// program.
//
// Expressions and statements live in per-function arenas and are referenced
// by index; `Function` owns everything. `FunctionBuilder` offers a concise
// construction API used by the KIR parser (kir/parser.hpp), the random
// kernel generator and tests; kernels themselves are written as KIR text.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "arch/operation.hpp"
#include "support/assert.hpp"

namespace cgra::kir {

using ExprId = std::uint32_t;
using StmtId = std::uint32_t;
using LocalId = std::uint32_t;
using FuncId = std::uint32_t;

inline constexpr ExprId kNoExpr = static_cast<ExprId>(-1);
inline constexpr StmtId kNoStmt = static_cast<StmtId>(-1);

/// Expression node kinds.
enum class ExprKind : std::uint8_t {
  Const,       ///< 32-bit immediate
  Local,       ///< read of a local variable
  Binary,      ///< op(lhs, rhs) with op an arithmetic/logic Op
  Unary,       ///< op(lhs) — INEG
  Compare,     ///< comparison producing 0/1 (op is an IF* Op)
  ArrayLoad,   ///< heap[lhs (handle)][rhs (index)]
  LogicalAnd,  ///< lhs && rhs — short-circuit: rhs evaluated only if lhs != 0
  LogicalOr,   ///< lhs || rhs — short-circuit: rhs evaluated only if lhs == 0
};

/// A KIR binary operator: its source spelling, its precedence level (0
/// binds loosest) and the node it builds. LogicalAnd/LogicalOr carry no Op
/// (Op::NOP).
struct BinaryOperator {
  std::string_view spelling;
  unsigned level;
  ExprKind kind;
  Op op;
};

/// Every KIR binary operator, loosest level first; every level groups to
/// the left. The lexer, the parser's precedence climbing and the printer
/// read this table, so an operator is spelled here and nowhere else.
/// Unary `-` and `!` bind tighter than any level (kir/parser.cpp).
inline constexpr auto kBinaryOperators = std::to_array<BinaryOperator>({
    {"||", 0, ExprKind::LogicalOr, Op::NOP},
    {"&&", 1, ExprKind::LogicalAnd, Op::NOP},
    {"|", 2, ExprKind::Binary, Op::IOR},
    {"^", 3, ExprKind::Binary, Op::IXOR},
    {"&", 4, ExprKind::Binary, Op::IAND},
    {"==", 5, ExprKind::Compare, Op::IFEQ},
    {"!=", 5, ExprKind::Compare, Op::IFNE},
    {"<", 6, ExprKind::Compare, Op::IFLT},
    {"<=", 6, ExprKind::Compare, Op::IFLE},
    {">", 6, ExprKind::Compare, Op::IFGT},
    {">=", 6, ExprKind::Compare, Op::IFGE},
    {"<<", 7, ExprKind::Binary, Op::ISHL},
    {">>", 7, ExprKind::Binary, Op::ISHR},
    {">>>", 7, ExprKind::Binary, Op::IUSHR},
    {"+", 8, ExprKind::Binary, Op::IADD},
    {"-", 8, ExprKind::Binary, Op::ISUB},
    {"*", 9, ExprKind::Binary, Op::IMUL},
});

struct Expr {
  ExprKind kind = ExprKind::Const;
  Op op = Op::IADD;      ///< Binary/Unary/Compare
  std::int32_t value = 0;  ///< Const
  LocalId local = 0;       ///< Local
  ExprId lhs = kNoExpr;
  ExprId rhs = kNoExpr;
};

/// Statement node kinds.
enum class StmtKind : std::uint8_t {
  Assign,      ///< locals[target] = value
  ArrayStore,  ///< heap[handle][index] = value
  If,          ///< if (cond) thenBlock else elseBlock
  While,       ///< while (cond) body
  Call,        ///< locals[target] = callee(args...)
  Block,       ///< statement sequence
  Break,       ///< exit the innermost enclosing loop
  Continue,    ///< jump to the innermost enclosing loop's next condition check
  Return,      ///< exit the function; `value` (optional) assigns `target`
               ///< (the local named "result") before leaving
  Switch,      ///< structured switch on `cond`: caseValues[i] selects
               ///< stmts[i]; `body` is the optional default arm. Arms are
               ///< blocks — no fall-through. break/continue inside an arm
               ///< bind to the enclosing *loop*, never to the switch.
};

struct Stmt {
  StmtKind kind = StmtKind::Block;
  LocalId target = 0;                ///< Assign / Call / Return (with value)
  ExprId value = kNoExpr;            ///< Assign / ArrayStore / Return
  ExprId handle = kNoExpr;           ///< ArrayStore
  ExprId index = kNoExpr;            ///< ArrayStore
  ExprId cond = kNoExpr;             ///< If / While / Switch (scrutinee)
  StmtId thenBlock = kNoStmt;        ///< If
  StmtId elseBlock = kNoStmt;        ///< If (may be kNoStmt)
  StmtId body = kNoStmt;             ///< While / Switch default (may be kNoStmt)
  FuncId callee = 0;                 ///< Call
  std::vector<ExprId> args{};              ///< Call
  std::vector<StmtId> stmts{};             ///< Block / Switch case arms
  std::vector<std::int32_t> caseValues{};  ///< Switch (parallel to stmts)
};

/// A local variable declaration.
struct LocalDecl {
  std::string name;
  bool isParameter = false;  ///< transferred in from the host (live-in)
};

/// One kernel function.
class Function {
public:
  Function() = default;
  explicit Function(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void setName(std::string n) { name_ = std::move(n); }

  LocalId addLocal(std::string name, bool isParameter = false);
  const LocalDecl& local(LocalId id) const;
  std::size_t numLocals() const { return locals_.size(); }
  /// Resolves a local by name; throws cgra::Error when absent.
  LocalId localByName(const std::string& name) const;

  ExprId addExpr(Expr e);
  const Expr& expr(ExprId id) const;
  std::size_t numExprs() const { return exprs_.size(); }

  StmtId addStmt(Stmt s);
  const Stmt& stmt(StmtId id) const;
  Stmt& stmt(StmtId id);
  std::size_t numStmts() const { return stmts_.size(); }

  StmtId body() const { return body_; }
  void setBody(StmtId b) { body_ = b; }

  /// Structural checks (ids in range, If/While conditions present, Block
  /// children valid); throws cgra::Error.
  void validate() const;

  /// Pretty-prints as pseudo-C (tests and docs).
  std::string toString() const;

  /// Locals read before any write on some path (must be provided by host).
  std::vector<LocalId> liveInLocals() const;
  /// Locals possibly written (must be copied back to the host).
  std::vector<LocalId> liveOutLocals() const;

private:
  std::string name_;
  std::vector<LocalDecl> locals_;
  std::vector<Expr> exprs_;
  std::vector<Stmt> stmts_;
  StmtId body_ = kNoStmt;
};

/// Returns a human-readable name of the first irregular control-flow
/// construct (break/continue/return/switch/&&/||) found in `fn`, or nullptr
/// when the function is fully structured. CDFG lowering only accepts
/// functions for which this returns nullptr; the frontend pipeline
/// (kir/passes/pipeline.hpp) establishes that invariant.
const char* firstIrregularConstruct(const Function& fn);

/// A program: functions referenced by Call statements.
class Program {
public:
  FuncId addFunction(Function f);
  const Function& function(FuncId id) const;
  Function& function(FuncId id);
  std::size_t numFunctions() const { return funcs_.size(); }
  FuncId functionByName(const std::string& name) const;

private:
  std::vector<Function> funcs_;
};

/// The node constructors: the one place that fills Expr and Stmt fields.
/// Kernels, the parser, the random generator and every frontend pass build
/// through it (the passes via the Cloner in kir/passes/pass_utils.hpp).
///
///   FunctionBuilder b("saxpy");
///   auto n = b.param("n"); auto a = b.param("a"); ...
///   b.loopFor(i, b.cint(0), b.lt(b.use(i), b.use(n)), ... );
class FunctionBuilder {
public:
  /// Builds a new function; finish() hands it over.
  explicit FunctionBuilder(std::string name)
      : owned_(std::move(name)), fn_(&owned_) {}
  /// Appends nodes and locals to an existing function.
  explicit FunctionBuilder(Function& fn) : fn_(&fn) {}
  FunctionBuilder(const FunctionBuilder&) = delete;
  FunctionBuilder& operator=(const FunctionBuilder&) = delete;

  // Locals.
  LocalId param(const std::string& name) { return fn_->addLocal(name, true); }
  LocalId localVar(const std::string& name) {
    return fn_->addLocal(name, false);
  }

  // Expressions.
  ExprId cint(std::int32_t v);
  ExprId use(LocalId l);
  /// A two-operand node of kind Binary, Compare, LogicalAnd or LogicalOr.
  ExprId binary(ExprKind kind, Op op, ExprId a, ExprId b);
  ExprId bin(Op op, ExprId a, ExprId b) {
    return binary(ExprKind::Binary, op, a, b);
  }
  ExprId add(ExprId a, ExprId b) { return bin(Op::IADD, a, b); }
  ExprId sub(ExprId a, ExprId b) { return bin(Op::ISUB, a, b); }
  ExprId mul(ExprId a, ExprId b) { return bin(Op::IMUL, a, b); }
  ExprId band(ExprId a, ExprId b) { return bin(Op::IAND, a, b); }
  ExprId bor(ExprId a, ExprId b) { return bin(Op::IOR, a, b); }
  ExprId bxor(ExprId a, ExprId b) { return bin(Op::IXOR, a, b); }
  ExprId shl(ExprId a, ExprId b) { return bin(Op::ISHL, a, b); }
  ExprId shr(ExprId a, ExprId b) { return bin(Op::ISHR, a, b); }
  ExprId ushr(ExprId a, ExprId b) { return bin(Op::IUSHR, a, b); }
  ExprId neg(ExprId a);
  ExprId cmp(Op op, ExprId a, ExprId b) {
    return binary(ExprKind::Compare, op, a, b);
  }
  ExprId eq(ExprId a, ExprId b) { return cmp(Op::IFEQ, a, b); }
  ExprId ne(ExprId a, ExprId b) { return cmp(Op::IFNE, a, b); }
  ExprId lt(ExprId a, ExprId b) { return cmp(Op::IFLT, a, b); }
  ExprId ge(ExprId a, ExprId b) { return cmp(Op::IFGE, a, b); }
  ExprId gt(ExprId a, ExprId b) { return cmp(Op::IFGT, a, b); }
  ExprId le(ExprId a, ExprId b) { return cmp(Op::IFLE, a, b); }
  ExprId load(ExprId handle, ExprId index);
  /// Short-circuit logical operators (normalized away by the frontend
  /// pipeline before CDFG lowering).
  ExprId land(ExprId a, ExprId b) {
    return binary(ExprKind::LogicalAnd, Op::NOP, a, b);
  }
  ExprId lor(ExprId a, ExprId b) {
    return binary(ExprKind::LogicalOr, Op::NOP, a, b);
  }

  // Statements (return the StmtId; compose with block()).
  StmtId assign(LocalId target, ExprId value);
  StmtId arrayStore(ExprId handle, ExprId index, ExprId value);
  StmtId ifElse(ExprId cond, StmtId thenB, StmtId elseB = kNoStmt);
  StmtId whileLoop(ExprId cond, StmtId body);
  /// for (init; cond; step) body — sugar: block{init, while(cond){body, step}}.
  StmtId forLoop(StmtId init, ExprId cond, StmtId step, StmtId body);
  StmtId call(LocalId target, FuncId callee, std::vector<ExprId> args);
  StmtId block(std::vector<StmtId> stmts);
  StmtId breakLoop();
  StmtId continueLoop();
  /// `return;` (no value) or `return value;` — the latter assigns the local
  /// named "result", creating it on first use.
  StmtId ret(ExprId value = kNoExpr);
  /// `return value;` assigning `target`.
  StmtId ret(LocalId target, ExprId value);
  /// switch (scrutinee) { case values[i]: blocks[i] ... default: defaultB }.
  /// `values` and `blocks` are parallel; values must be distinct.
  StmtId switchStmt(ExprId scrutinee, std::vector<std::int32_t> values,
                    std::vector<StmtId> blocks, StmtId defaultB = kNoStmt);

  /// Sets the body and returns the finished function (a builder that
  /// appends to an existing function has nothing to hand over).
  Function finish(StmtId body);

  Function& fn() { return *fn_; }

private:
  Function owned_;
  Function* fn_;
};

}  // namespace cgra::kir
