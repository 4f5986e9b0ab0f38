#include "kir/kir.hpp"

#include <algorithm>
#include <functional>
#include <set>
#include <sstream>

namespace cgra::kir {

// ---------------------------------------------------------------------------
// Function

LocalId Function::addLocal(std::string name, bool isParameter) {
  locals_.push_back(LocalDecl{std::move(name), isParameter});
  return static_cast<LocalId>(locals_.size() - 1);
}

const LocalDecl& Function::local(LocalId id) const {
  CGRA_ASSERT(id < locals_.size());
  return locals_[id];
}

LocalId Function::localByName(const std::string& name) const {
  for (LocalId i = 0; i < locals_.size(); ++i)
    if (locals_[i].name == name) return i;
  throw Error("function " + name_ + ": no local named \"" + name + '"');
}

ExprId Function::addExpr(Expr e) {
  exprs_.push_back(std::move(e));
  return static_cast<ExprId>(exprs_.size() - 1);
}

const Expr& Function::expr(ExprId id) const {
  CGRA_ASSERT(id < exprs_.size());
  return exprs_[id];
}

StmtId Function::addStmt(Stmt s) {
  stmts_.push_back(std::move(s));
  return static_cast<StmtId>(stmts_.size() - 1);
}

const Stmt& Function::stmt(StmtId id) const {
  CGRA_ASSERT(id < stmts_.size());
  return stmts_[id];
}

Stmt& Function::stmt(StmtId id) {
  CGRA_ASSERT(id < stmts_.size());
  return stmts_[id];
}

void Function::validate() const {
  if (body_ == kNoStmt) throw Error("function " + name_ + ": no body");

  auto checkExpr = [&](ExprId id, auto&& self) -> void {
    if (id >= exprs_.size())
      throw Error("function " + name_ + ": expression id out of range");
    const Expr& e = exprs_[id];
    switch (e.kind) {
      case ExprKind::Const: break;
      case ExprKind::Local:
        if (e.local >= locals_.size())
          throw Error("function " + name_ + ": local id out of range");
        break;
      case ExprKind::Binary:
        if (producesStatus(e.op) || isMemoryOp(e.op) || operandCount(e.op) != 2)
          throw Error("function " + name_ + ": bad binary op");
        self(e.lhs, self);
        self(e.rhs, self);
        break;
      case ExprKind::Unary:
        if (e.op != Op::INEG)
          throw Error("function " + name_ + ": bad unary op");
        self(e.lhs, self);
        break;
      case ExprKind::Compare:
        if (!producesStatus(e.op))
          throw Error("function " + name_ + ": compare with non-status op");
        self(e.lhs, self);
        self(e.rhs, self);
        break;
      case ExprKind::ArrayLoad:
      case ExprKind::LogicalAnd:
      case ExprKind::LogicalOr:
        self(e.lhs, self);
        self(e.rhs, self);
        break;
    }
  };

  std::function<void(StmtId, int)> checkStmt = [&](StmtId id, int loopDepth) {
    if (id >= stmts_.size())
      throw Error("function " + name_ + ": statement id out of range");
    const Stmt& s = stmts_[id];
    switch (s.kind) {
      case StmtKind::Assign:
        if (s.target >= locals_.size())
          throw Error("function " + name_ + ": assign target out of range");
        checkExpr(s.value, checkExpr);
        break;
      case StmtKind::ArrayStore:
        checkExpr(s.handle, checkExpr);
        checkExpr(s.index, checkExpr);
        checkExpr(s.value, checkExpr);
        break;
      case StmtKind::If:
        checkExpr(s.cond, checkExpr);
        checkStmt(s.thenBlock, loopDepth);
        if (s.elseBlock != kNoStmt) checkStmt(s.elseBlock, loopDepth);
        break;
      case StmtKind::While:
        checkExpr(s.cond, checkExpr);
        checkStmt(s.body, loopDepth + 1);
        break;
      case StmtKind::Call:
        if (s.target >= locals_.size())
          throw Error("function " + name_ + ": call target out of range");
        for (ExprId a : s.args) checkExpr(a, checkExpr);
        break;
      case StmtKind::Block:
        for (StmtId c : s.stmts) checkStmt(c, loopDepth);
        break;
      case StmtKind::Break:
        if (loopDepth == 0)
          throw Error("function " + name_ + ": break outside of a loop");
        break;
      case StmtKind::Continue:
        if (loopDepth == 0)
          throw Error("function " + name_ + ": continue outside of a loop");
        break;
      case StmtKind::Return:
        if (s.value != kNoExpr) {
          checkExpr(s.value, checkExpr);
          if (s.target >= locals_.size())
            throw Error("function " + name_ + ": return target out of range");
        }
        break;
      case StmtKind::Switch: {
        checkExpr(s.cond, checkExpr);
        if (s.caseValues.size() != s.stmts.size())
          throw Error("function " + name_ +
                      ": switch case values and arms differ in count");
        std::set<std::int32_t> seen;
        for (std::int32_t v : s.caseValues)
          if (!seen.insert(v).second)
            throw Error("function " + name_ + ": duplicate switch case " +
                        std::to_string(v));
        for (StmtId arm : s.stmts) checkStmt(arm, loopDepth);
        if (s.body != kNoStmt) checkStmt(s.body, loopDepth);
        break;
      }
    }
  };
  checkStmt(body_, 0);
}

namespace {

void printExpr(const Function& fn, ExprId id, std::ostream& os) {
  const Expr& e = fn.expr(id);
  switch (e.kind) {
    case ExprKind::Const: os << e.value; break;
    case ExprKind::Local: os << fn.local(e.local).name; break;
    case ExprKind::Unary:
      os << "(-";
      printExpr(fn, e.lhs, os);
      os << ')';
      break;
    case ExprKind::Binary:
    case ExprKind::Compare:
    case ExprKind::LogicalAnd:
    case ExprKind::LogicalOr: {
      const auto row = std::ranges::find_if(kBinaryOperators, [&](const auto& o) {
        return o.kind == e.kind && o.op == e.op;
      });
      os << '(';
      printExpr(fn, e.lhs, os);
      os << ' '
         << (row != kBinaryOperators.end() ? row->spelling : opName(e.op))
         << ' ';
      printExpr(fn, e.rhs, os);
      os << ')';
      break;
    }
    case ExprKind::ArrayLoad:
      printExpr(fn, e.lhs, os);
      os << '[';
      printExpr(fn, e.rhs, os);
      os << ']';
      break;
  }
}

void printStmt(const Function& fn, StmtId id, std::ostream& os, int depth) {
  const std::string ind(static_cast<std::size_t>(depth) * 2, ' ');
  const Stmt& s = fn.stmt(id);
  switch (s.kind) {
    case StmtKind::Assign:
      os << ind << fn.local(s.target).name << " = ";
      printExpr(fn, s.value, os);
      os << ";\n";
      break;
    case StmtKind::ArrayStore:
      os << ind;
      printExpr(fn, s.handle, os);
      os << '[';
      printExpr(fn, s.index, os);
      os << "] = ";
      printExpr(fn, s.value, os);
      os << ";\n";
      break;
    case StmtKind::If:
      os << ind << "if ";
      printExpr(fn, s.cond, os);
      os << " {\n";
      printStmt(fn, s.thenBlock, os, depth + 1);
      if (s.elseBlock != kNoStmt) {
        os << ind << "} else {\n";
        printStmt(fn, s.elseBlock, os, depth + 1);
      }
      os << ind << "}\n";
      break;
    case StmtKind::While:
      os << ind << "while ";
      printExpr(fn, s.cond, os);
      os << " {\n";
      printStmt(fn, s.body, os, depth + 1);
      os << ind << "}\n";
      break;
    case StmtKind::Call: {
      os << ind << fn.local(s.target).name << " = call#" << s.callee << '(';
      bool first = true;
      for (ExprId a : s.args) {
        if (!first) os << ", ";
        first = false;
        printExpr(fn, a, os);
      }
      os << ");\n";
      break;
    }
    case StmtKind::Block:
      for (StmtId c : s.stmts) printStmt(fn, c, os, depth);
      break;
    case StmtKind::Break:
      os << ind << "break;\n";
      break;
    case StmtKind::Continue:
      os << ind << "continue;\n";
      break;
    case StmtKind::Return:
      os << ind << "return";
      if (s.value != kNoExpr) {
        os << ' ';
        printExpr(fn, s.value, os);
      }
      os << ";\n";
      break;
    case StmtKind::Switch:
      os << ind << "switch ";
      printExpr(fn, s.cond, os);
      os << " {\n";
      for (std::size_t i = 0; i < s.stmts.size(); ++i) {
        os << ind << "case " << s.caseValues[i] << ": {\n";
        printStmt(fn, s.stmts[i], os, depth + 1);
        os << ind << "}\n";
      }
      if (s.body != kNoStmt) {
        os << ind << "default: {\n";
        printStmt(fn, s.body, os, depth + 1);
        os << ind << "}\n";
      }
      os << ind << "}\n";
      break;
  }
}

/// Collects locals read / written, walking the whole tree. A local counts as
/// live-in when some read is not dominated by a write in straight-line
/// order; the analysis is conservative for branches (a write inside an if
/// does not kill the variable).
struct Liveness {
  std::set<LocalId> liveIn;
  std::set<LocalId> written;
};

void exprReads(const Function& fn, ExprId id, const std::set<LocalId>& defined,
               Liveness& lv) {
  const Expr& e = fn.expr(id);
  switch (e.kind) {
    case ExprKind::Const: break;
    case ExprKind::Local:
      if (!defined.contains(e.local)) lv.liveIn.insert(e.local);
      break;
    case ExprKind::Unary: exprReads(fn, e.lhs, defined, lv); break;
    case ExprKind::Binary:
    case ExprKind::Compare:
    case ExprKind::ArrayLoad:
    // Conservative for short-circuit: the rhs may not run, but counting its
    // reads as live-in is safe (over-approximation).
    case ExprKind::LogicalAnd:
    case ExprKind::LogicalOr:
      exprReads(fn, e.lhs, defined, lv);
      exprReads(fn, e.rhs, defined, lv);
      break;
  }
}

void stmtLiveness(const Function& fn, StmtId id, std::set<LocalId>& defined,
                  Liveness& lv) {
  const Stmt& s = fn.stmt(id);
  switch (s.kind) {
    case StmtKind::Assign:
      exprReads(fn, s.value, defined, lv);
      defined.insert(s.target);
      lv.written.insert(s.target);
      break;
    case StmtKind::ArrayStore:
      exprReads(fn, s.handle, defined, lv);
      exprReads(fn, s.index, defined, lv);
      exprReads(fn, s.value, defined, lv);
      break;
    case StmtKind::If: {
      exprReads(fn, s.cond, defined, lv);
      std::set<LocalId> thenDef = defined;
      stmtLiveness(fn, s.thenBlock, thenDef, lv);
      std::set<LocalId> elseDef = defined;
      if (s.elseBlock != kNoStmt) stmtLiveness(fn, s.elseBlock, elseDef, lv);
      // A variable is definitely defined after the if only when both arms
      // define it.
      for (LocalId l : thenDef)
        if (elseDef.contains(l)) defined.insert(l);
      break;
    }
    case StmtKind::While: {
      exprReads(fn, s.cond, defined, lv);
      // The body may execute zero times: definitions inside do not count as
      // definite, but reads inside see the pre-loop state conservatively.
      std::set<LocalId> bodyDef = defined;
      stmtLiveness(fn, s.body, bodyDef, lv);
      break;
    }
    case StmtKind::Call:
      for (ExprId a : s.args) exprReads(fn, a, defined, lv);
      defined.insert(s.target);
      lv.written.insert(s.target);
      break;
    case StmtKind::Block:
      for (StmtId c : s.stmts) stmtLiveness(fn, c, defined, lv);
      break;
    case StmtKind::Break:
    case StmtKind::Continue:
      break;
    case StmtKind::Return:
      if (s.value != kNoExpr) {
        exprReads(fn, s.value, defined, lv);
        // Nothing on this path executes after the return, so the write is
        // both definite and a live-out.
        defined.insert(s.target);
        lv.written.insert(s.target);
      }
      break;
    case StmtKind::Switch: {
      exprReads(fn, s.cond, defined, lv);
      // A variable is definitely defined after the switch only when every
      // arm (including a default — without one, some values skip all arms)
      // defines it.
      std::vector<std::set<LocalId>> armDefs;
      for (StmtId arm : s.stmts) {
        std::set<LocalId> d = defined;
        stmtLiveness(fn, arm, d, lv);
        armDefs.push_back(std::move(d));
      }
      if (s.body != kNoStmt) {
        std::set<LocalId> d = defined;
        stmtLiveness(fn, s.body, d, lv);
        armDefs.push_back(std::move(d));
        for (LocalId l : armDefs.front()) {
          bool everywhere = true;
          for (const auto& d : armDefs)
            if (!d.contains(l)) { everywhere = false; break; }
          if (everywhere) defined.insert(l);
        }
      }
      break;
    }
  }
}

Liveness computeLiveness(const Function& fn) {
  Liveness lv;
  std::set<LocalId> defined;
  // Parameters are defined by the host transfer.
  for (LocalId i = 0; i < fn.numLocals(); ++i)
    if (fn.local(i).isParameter) {
      defined.insert(i);
      lv.liveIn.insert(i);
    }
  stmtLiveness(fn, fn.body(), defined, lv);
  return lv;
}

}  // namespace

std::string Function::toString() const {
  std::ostringstream os;
  os << "kernel " << name_ << "(";
  bool first = true;
  for (const LocalDecl& l : locals_)
    if (l.isParameter) {
      if (!first) os << ", ";
      first = false;
      os << l.name;
    }
  os << ") {\n";
  if (body_ != kNoStmt) printStmt(*this, body_, os, 1);
  os << "}\n";
  return os.str();
}

std::vector<LocalId> Function::liveInLocals() const {
  const Liveness lv = computeLiveness(*this);
  return {lv.liveIn.begin(), lv.liveIn.end()};
}

std::vector<LocalId> Function::liveOutLocals() const {
  const Liveness lv = computeLiveness(*this);
  return {lv.written.begin(), lv.written.end()};
}

namespace {

const char* irregularInExpr(const Function& fn, ExprId id) {
  if (id == kNoExpr) return nullptr;
  const Expr& e = fn.expr(id);
  if (e.kind == ExprKind::LogicalAnd) return "a short-circuit '&&'";
  if (e.kind == ExprKind::LogicalOr) return "a short-circuit '||'";
  switch (e.kind) {
    case ExprKind::Const:
    case ExprKind::Local:
      return nullptr;
    case ExprKind::Unary:
      return irregularInExpr(fn, e.lhs);
    default:
      if (const char* c = irregularInExpr(fn, e.lhs)) return c;
      return irregularInExpr(fn, e.rhs);
  }
}

const char* irregularInStmt(const Function& fn, StmtId id) {
  if (id == kNoStmt) return nullptr;
  const Stmt& s = fn.stmt(id);
  switch (s.kind) {
    case StmtKind::Break: return "a 'break'";
    case StmtKind::Continue: return "a 'continue'";
    case StmtKind::Return: return "a 'return'";
    case StmtKind::Switch: return "a 'switch'";
    case StmtKind::Assign:
      return irregularInExpr(fn, s.value);
    case StmtKind::ArrayStore:
      if (const char* c = irregularInExpr(fn, s.handle)) return c;
      if (const char* c = irregularInExpr(fn, s.index)) return c;
      return irregularInExpr(fn, s.value);
    case StmtKind::If:
      if (const char* c = irregularInExpr(fn, s.cond)) return c;
      if (const char* c = irregularInStmt(fn, s.thenBlock)) return c;
      return irregularInStmt(fn, s.elseBlock);
    case StmtKind::While:
      if (const char* c = irregularInExpr(fn, s.cond)) return c;
      return irregularInStmt(fn, s.body);
    case StmtKind::Call:
      for (ExprId a : s.args)
        if (const char* c = irregularInExpr(fn, a)) return c;
      return nullptr;
    case StmtKind::Block:
      for (StmtId c : s.stmts)
        if (const char* r = irregularInStmt(fn, c)) return r;
      return nullptr;
  }
  return nullptr;
}

}  // namespace

const char* firstIrregularConstruct(const Function& fn) {
  if (fn.body() == kNoStmt) return nullptr;
  return irregularInStmt(fn, fn.body());
}

// ---------------------------------------------------------------------------
// Program

FuncId Program::addFunction(Function f) {
  funcs_.push_back(std::move(f));
  return static_cast<FuncId>(funcs_.size() - 1);
}

const Function& Program::function(FuncId id) const {
  CGRA_ASSERT(id < funcs_.size());
  return funcs_[id];
}

Function& Program::function(FuncId id) {
  CGRA_ASSERT(id < funcs_.size());
  return funcs_[id];
}

FuncId Program::functionByName(const std::string& name) const {
  for (FuncId i = 0; i < funcs_.size(); ++i)
    if (funcs_[i].name() == name) return i;
  throw Error("program has no function named \"" + name + '"');
}

// ---------------------------------------------------------------------------
// FunctionBuilder

ExprId FunctionBuilder::cint(std::int32_t v) {
  return fn_->addExpr({.kind = ExprKind::Const, .value = v});
}

ExprId FunctionBuilder::use(LocalId l) {
  return fn_->addExpr({.kind = ExprKind::Local, .local = l});
}

ExprId FunctionBuilder::binary(ExprKind kind, Op op, ExprId a, ExprId b) {
  return fn_->addExpr({.kind = kind, .op = op, .lhs = a, .rhs = b});
}

ExprId FunctionBuilder::neg(ExprId a) {
  return fn_->addExpr({.kind = ExprKind::Unary, .op = Op::INEG, .lhs = a});
}

ExprId FunctionBuilder::load(ExprId handle, ExprId index) {
  return fn_->addExpr(
      {.kind = ExprKind::ArrayLoad, .lhs = handle, .rhs = index});
}

StmtId FunctionBuilder::assign(LocalId target, ExprId value) {
  return fn_->addStmt(
      {.kind = StmtKind::Assign, .target = target, .value = value});
}

StmtId FunctionBuilder::arrayStore(ExprId handle, ExprId index, ExprId value) {
  return fn_->addStmt({.kind = StmtKind::ArrayStore,
                       .value = value,
                       .handle = handle,
                       .index = index});
}

StmtId FunctionBuilder::ifElse(ExprId cond, StmtId thenB, StmtId elseB) {
  return fn_->addStmt({.kind = StmtKind::If,
                       .cond = cond,
                       .thenBlock = thenB,
                       .elseBlock = elseB});
}

StmtId FunctionBuilder::whileLoop(ExprId cond, StmtId body) {
  return fn_->addStmt({.kind = StmtKind::While, .cond = cond, .body = body});
}

StmtId FunctionBuilder::forLoop(StmtId init, ExprId cond, StmtId step,
                                StmtId body) {
  const StmtId bodyWithStep = block({body, step});
  const StmtId loop = whileLoop(cond, bodyWithStep);
  return block({init, loop});
}

StmtId FunctionBuilder::call(LocalId target, FuncId callee,
                             std::vector<ExprId> args) {
  return fn_->addStmt({.kind = StmtKind::Call,
                       .target = target,
                       .callee = callee,
                       .args = std::move(args)});
}

StmtId FunctionBuilder::block(std::vector<StmtId> stmts) {
  return fn_->addStmt({.kind = StmtKind::Block, .stmts = std::move(stmts)});
}

StmtId FunctionBuilder::breakLoop() {
  return fn_->addStmt({.kind = StmtKind::Break});
}

StmtId FunctionBuilder::continueLoop() {
  return fn_->addStmt({.kind = StmtKind::Continue});
}

StmtId FunctionBuilder::ret(ExprId value) {
  if (value == kNoExpr) return fn_->addStmt({.kind = StmtKind::Return});
  LocalId result;
  try {
    result = fn_->localByName("result");
  } catch (const Error&) {
    result = fn_->addLocal("result", false);
  }
  return ret(result, value);
}

StmtId FunctionBuilder::ret(LocalId target, ExprId value) {
  return fn_->addStmt(
      {.kind = StmtKind::Return, .target = target, .value = value});
}

StmtId FunctionBuilder::switchStmt(ExprId scrutinee,
                                   std::vector<std::int32_t> values,
                                   std::vector<StmtId> blocks,
                                   StmtId defaultB) {
  return fn_->addStmt({.kind = StmtKind::Switch,
                       .cond = scrutinee,
                       .body = defaultB,
                       .stmts = std::move(blocks),
                       .caseValues = std::move(values)});
}

Function FunctionBuilder::finish(StmtId body) {
  CGRA_ASSERT(fn_ == &owned_);
  fn_->setBody(body);
  fn_->validate();
  return std::move(*fn_);
}

}  // namespace cgra::kir
