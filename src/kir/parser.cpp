#include "kir/parser.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string_view>
#include <vector>

namespace cgra::kir {

namespace {

enum class Tok : std::uint8_t {
  End, Ident, Int,
  KwKernel, KwVar, KwIf, KwElse, KwWhile,
  KwBreak, KwContinue, KwReturn, KwSwitch, KwCase, KwDefault,
  LParen, RParen, LBrace, RBrace, LBracket, RBracket,
  Comma, Semi, Colon, Assign, Bang,
  Operator,  ///< a kBinaryOperators spelling
};

struct Token {
  Tok kind = Tok::End;
  std::string text;
  std::int32_t value = 0;
  const BinaryOperator* op = nullptr;  ///< Operator
  int line = 1, col = 1;
};

class Lexer {
public:
  explicit Lexer(const std::string& src) : src_(src) { advance(); }

  const Token& peek() const { return tok_; }

  Token take() {
    Token t = tok_;
    advance();
    return t;
  }

private:
  [[noreturn]] void fail(const std::string& msg) const {
    std::ostringstream os;
    os << "kernel parse error at line " << line_ << ", column " << col_
       << ": " << msg;
    throw Error(os.str());
  }

  char cur() const { return pos_ < src_.size() ? src_[pos_] : '\0'; }
  char next() const { return pos_ + 1 < src_.size() ? src_[pos_ + 1] : '\0'; }

  void bump() {
    if (cur() == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  void skipWsAndComments() {
    while (true) {
      while (std::isspace(static_cast<unsigned char>(cur()))) bump();
      if (cur() == '/' && next() == '/') {
        while (cur() && cur() != '\n') bump();
        continue;
      }
      if (cur() == '/' && next() == '*') {
        bump();
        bump();
        while (cur() && !(cur() == '*' && next() == '/')) bump();
        if (!cur()) fail("unterminated block comment");
        bump();
        bump();
        continue;
      }
      break;
    }
  }

  void advance() {
    skipWsAndComments();
    tok_ = Token{};
    tok_.line = line_;
    tok_.col = col_;
    const char c = cur();
    if (!c) {
      tok_.kind = Tok::End;
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string id;
      while (std::isalnum(static_cast<unsigned char>(cur())) || cur() == '_') {
        id.push_back(cur());
        bump();
      }
      tok_.text = id;
      if (id == "kernel") tok_.kind = Tok::KwKernel;
      else if (id == "var") tok_.kind = Tok::KwVar;
      else if (id == "if") tok_.kind = Tok::KwIf;
      else if (id == "else") tok_.kind = Tok::KwElse;
      else if (id == "while") tok_.kind = Tok::KwWhile;
      else if (id == "break") tok_.kind = Tok::KwBreak;
      else if (id == "continue") tok_.kind = Tok::KwContinue;
      else if (id == "return") tok_.kind = Tok::KwReturn;
      else if (id == "switch") tok_.kind = Tok::KwSwitch;
      else if (id == "case") tok_.kind = Tok::KwCase;
      else if (id == "default") tok_.kind = Tok::KwDefault;
      else tok_.kind = Tok::Ident;
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::uint64_t v = 0;
      if (c == '0' && (next() == 'x' || next() == 'X')) {
        bump();
        bump();
        if (!std::isxdigit(static_cast<unsigned char>(cur())))
          fail("expected hex digits after 0x");
        while (std::isxdigit(static_cast<unsigned char>(cur()))) {
          const char h = cur();
          v = v * 16 +
              static_cast<std::uint64_t>(
                  h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10);
          if (v > 0xFFFFFFFFull) fail("integer literal too large");
          bump();
        }
      } else {
        while (std::isdigit(static_cast<unsigned char>(cur()))) {
          v = v * 10 + static_cast<std::uint64_t>(cur() - '0');
          if (v > 0xFFFFFFFFull) fail("integer literal too large");
          bump();
        }
      }
      tok_.kind = Tok::Int;
      tok_.value = static_cast<std::int32_t>(static_cast<std::uint32_t>(v));
      return;
    }
    // The longest spelling wins, so `>>>` is not read as `>>` `>`.
    const std::string_view rest = std::string_view(src_).substr(pos_);
    for (const BinaryOperator& o : kBinaryOperators)
      if (rest.starts_with(o.spelling) &&
          (!tok_.op || o.spelling.size() > tok_.op->spelling.size()))
        tok_.op = &o;
    if (tok_.op) {
      for (std::size_t i = 0; i < tok_.op->spelling.size(); ++i) bump();
      tok_.kind = Tok::Operator;
      return;
    }
    bump();
    switch (c) {
      case '(': tok_.kind = Tok::LParen; return;
      case ')': tok_.kind = Tok::RParen; return;
      case '{': tok_.kind = Tok::LBrace; return;
      case '}': tok_.kind = Tok::RBrace; return;
      case '[': tok_.kind = Tok::LBracket; return;
      case ']': tok_.kind = Tok::RBracket; return;
      case ',': tok_.kind = Tok::Comma; return;
      case ';': tok_.kind = Tok::Semi; return;
      case ':': tok_.kind = Tok::Colon; return;
      case '=': tok_.kind = Tok::Assign; return;
      case '!': tok_.kind = Tok::Bang; return;
      default: fail(std::string("unexpected character '") + c + "'");
    }
  }

  const std::string& src_;
  std::size_t pos_ = 0;
  int line_ = 1, col_ = 1;
  Token tok_;
};

class Parser {
public:
  explicit Parser(const std::string& src) : lex_(src) {}

  Function parse() {
    expect(Tok::KwKernel, "expected 'kernel'");
    const Token name = expect(Tok::Ident, "expected kernel name");
    builder_.emplace(name.text);
    expect(Tok::LParen, "expected '('");
    if (lex_.peek().kind != Tok::RParen) {
      while (true) {
        const Token param = expect(Tok::Ident, "expected parameter name");
        declare(param, /*isParam=*/true);
        if (lex_.peek().kind != Tok::Comma) break;
        lex_.take();
      }
    }
    expect(Tok::RParen, "expected ')'");
    const StmtId body = parseBlock();
    return builder_->finish(body);
  }

private:
  [[noreturn]] void fail(const Token& at, const std::string& msg) const {
    std::ostringstream os;
    os << "kernel parse error at line " << at.line << ", column " << at.col
       << ": " << msg;
    throw Error(os.str());
  }

  Token expect(Tok kind, const std::string& msg) {
    if (lex_.peek().kind != kind) fail(lex_.peek(), msg);
    return lex_.take();
  }

  /// Counts one level of syntactic nesting for as long as it lives. The
  /// parser recurses once per level, so the limit bounds its stack on
  /// hostile input (kMaxNestingDepth).
  class Nest {
  public:
    explicit Nest(Parser& p) : p_(p) {
      if (++p_.depth_ > kMaxNestingDepth)
        p_.fail(p_.lex_.peek(), "nesting deeper than " +
                                    std::to_string(kMaxNestingDepth) +
                                    " levels");
    }
    ~Nest() { --p_.depth_; }
    Nest(const Nest&) = delete;
    Nest& operator=(const Nest&) = delete;

  private:
    Parser& p_;
  };

  LocalId declare(const Token& name, bool isParam) {
    if (locals_.contains(name.text))
      fail(name, "duplicate declaration of '" + name.text + "'");
    const LocalId id = isParam ? builder_->param(name.text)
                               : builder_->localVar(name.text);
    locals_[name.text] = id;
    return id;
  }

  LocalId resolve(const Token& name) const {
    const auto it = locals_.find(name.text);
    if (it == locals_.end())
      fail(name, "use of undeclared identifier '" + name.text + "'");
    return it->second;
  }

  StmtId parseBlock() {
    const Nest nest(*this);
    expect(Tok::LBrace, "expected '{'");
    std::vector<StmtId> stmts;
    while (lex_.peek().kind != Tok::RBrace) {
      if (lex_.peek().kind == Tok::End) fail(lex_.peek(), "unterminated block");
      if (const StmtId s = parseStmt(); s != kNoStmt) stmts.push_back(s);
    }
    lex_.take();
    return builder_->block(std::move(stmts));
  }

  StmtId parseStmt() {
    const Token& t = lex_.peek();
    switch (t.kind) {
      case Tok::KwVar: {
        lex_.take();
        const Token name = expect(Tok::Ident, "expected variable name");
        const LocalId id = declare(name, false);
        if (lex_.peek().kind != Tok::Assign) {
          // A bare declaration emits no statement: the local starts at its
          // host value and is live-in if read before written.
          expect(Tok::Semi, "expected ';'");
          return kNoStmt;
        }
        lex_.take();
        const ExprId init = parseExpr();
        expect(Tok::Semi, "expected ';'");
        return builder_->assign(id, init);
      }
      case Tok::KwIf: {
        lex_.take();
        expect(Tok::LParen, "expected '(' after if");
        const Token condAt = lex_.peek();
        const ExprId cond = parseExpr();
        expect(Tok::RParen, "expected ')'");
        const StmtId thenB = parseBlock();
        StmtId elseB = kNoStmt;
        if (lex_.peek().kind == Tok::KwElse) {
          lex_.take();
          const Nest nest(*this);  // an else-if chain nests like blocks
          elseB = lex_.peek().kind == Tok::KwIf ? parseStmt() : parseBlock();
        }
        return builder_->ifElse(asCondition(cond, condAt), thenB, elseB);
      }
      case Tok::KwWhile: {
        lex_.take();
        expect(Tok::LParen, "expected '(' after while");
        const Token condAt = lex_.peek();
        const ExprId cond = parseExpr();
        expect(Tok::RParen, "expected ')'");
        return builder_->whileLoop(asCondition(cond, condAt), parseBlock());
      }
      case Tok::KwBreak: {
        lex_.take();
        expect(Tok::Semi, "expected ';' after break");
        return builder_->breakLoop();
      }
      case Tok::KwContinue: {
        lex_.take();
        expect(Tok::Semi, "expected ';' after continue");
        return builder_->continueLoop();
      }
      case Tok::KwReturn: {
        lex_.take();
        ExprId value = kNoExpr;
        if (lex_.peek().kind != Tok::Semi) value = parseExpr();
        expect(Tok::Semi, "expected ';' after return");
        const StmtId s = builder_->ret(value);
        // `return expr;` materializes the implicit "result" local; register
        // it so later statements can read it and redeclaration is an error.
        if (value != kNoExpr && !locals_.contains("result"))
          locals_["result"] = builder_->fn().localByName("result");
        return s;
      }
      case Tok::KwSwitch:
        return parseSwitch();
      case Tok::Ident: {
        const Token name = lex_.take();
        const LocalId id = resolve(name);
        if (lex_.peek().kind == Tok::LBracket) {
          lex_.take();
          const ExprId index = parseExpr();
          expect(Tok::RBracket, "expected ']'");
          expect(Tok::Assign, "expected '=' after array subscript");
          const ExprId value = parseExpr();
          expect(Tok::Semi, "expected ';'");
          return builder_->arrayStore(builder_->use(id), index, value);
        }
        expect(Tok::Assign, "expected '='");
        const ExprId value = parseExpr();
        expect(Tok::Semi, "expected ';'");
        return builder_->assign(id, value);
      }
      default:
        fail(t, "expected a statement");
    }
  }

  /// switch (expr) { case N: {...} ... default: {...} } — each arm is a
  /// braced block (no fall-through), values are integer literals, `default`
  /// is optional and must come last.
  StmtId parseSwitch() {
    lex_.take();
    expect(Tok::LParen, "expected '(' after switch");
    const ExprId scrutinee = parseExpr();
    expect(Tok::RParen, "expected ')'");
    expect(Tok::LBrace, "expected '{' after switch (...)");
    std::vector<std::int32_t> values;
    std::vector<StmtId> arms;
    StmtId defaultB = kNoStmt;
    while (lex_.peek().kind != Tok::RBrace) {
      if (lex_.peek().kind == Tok::KwCase) {
        const Token at = lex_.take();
        if (defaultB != kNoStmt) fail(at, "'case' after 'default'");
        bool negate = false;
        if (isMinus(lex_.peek())) {
          lex_.take();
          negate = true;
        }
        const Token lit = expect(Tok::Int, "expected integer case value");
        expect(Tok::Colon, "expected ':' after case value");
        values.push_back(negate ? static_cast<std::int32_t>(
                                      -static_cast<std::int64_t>(lit.value))
                                : lit.value);
        arms.push_back(parseBlock());
      } else if (lex_.peek().kind == Tok::KwDefault) {
        const Token at = lex_.take();
        if (defaultB != kNoStmt) fail(at, "duplicate 'default'");
        expect(Tok::Colon, "expected ':' after default");
        defaultB = parseBlock();
      } else {
        fail(lex_.peek(), "expected 'case', 'default' or '}' in switch");
      }
    }
    lex_.take();
    if (values.empty() && defaultB == kNoStmt)
      fail(lex_.peek(), "switch without any case or default arm");
    return builder_->switchStmt(scrutinee, std::move(values), std::move(arms),
                                defaultB);
  }

  /// if/while conditions: a bare integer expression means `expr != 0`;
  /// comparisons and short-circuit operators pass through. `at` is where
  /// the condition starts, for the depth error.
  ExprId asCondition(ExprId e, const Token& at) {
    const ExprKind k = builder_->fn().expr(e).kind;
    if (k == ExprKind::Compare || k == ExprKind::LogicalAnd ||
        k == ExprKind::LogicalOr)
      return e;
    return checkTreeDepth(builder_->ne(e, builder_->cint(0)), at);
  }

  ExprId parseExpr() {
    const Token start = lex_.peek();
    return checkTreeDepth(parseBinary(0), start);
  }

  /// Rejects expression trees deeper than kMaxNestingDepth. The binary
  /// operator loops build `x + x + ...` iteratively, but the passes after
  /// the parser recurse once per tree level, so a long chain is as deep as
  /// a long nest of parentheses. Operands are built before the node that
  /// uses them, so one pass in id order over the nodes built since the
  /// last call settles every new depth.
  ExprId checkTreeDepth(ExprId e, const Token& at) {
    const Function& fn = builder_->fn();
    for (ExprId id = static_cast<ExprId>(exprDepth_.size());
         id < fn.numExprs(); ++id) {
      const Expr& x = fn.expr(id);
      std::size_t depth = 0;
      for (const ExprId child : {x.lhs, x.rhs})
        if (child != kNoExpr) depth = std::max(depth, exprDepth_[child]);
      exprDepth_.push_back(depth + 1);
      if (depth + 1 > kMaxNestingDepth)
        fail(at, "expression tree deeper than " +
                     std::to_string(kMaxNestingDepth) + " levels");
    }
    return e;
  }

  static bool isMinus(const Token& t) {
    return t.kind == Tok::Operator && t.op->spelling == "-";
  }

  /// Precedence climbing over kBinaryOperators: parses unary operands
  /// joined by operators of `minLevel` or tighter. Each operand is built
  /// before its operator and the right operand takes only tighter levels,
  /// so every level groups to the left. `&&`/`||` keep their operands raw;
  /// the short-circuit node normalizes to 0/1 and skips the rhs when the
  /// lhs decides.
  ExprId parseBinary(unsigned minLevel) {
    ExprId lhs = parseUnary();
    while (lex_.peek().kind == Tok::Operator &&
           lex_.peek().op->level >= minLevel) {
      const BinaryOperator& o = *lex_.take().op;
      lhs = builder_->binary(o.kind, o.op, lhs, parseBinary(o.level + 1));
    }
    return lhs;
  }

  ExprId parseUnary() {
    const Token& t = lex_.peek();
    const bool minus = isMinus(t);
    if (!minus && t.kind != Tok::Bang) return parsePrimary();
    const Nest nest(*this);
    if (minus) {
      lex_.take();
      // Fold -literal directly so INT_MIN is expressible.
      if (lex_.peek().kind == Tok::Int) {
        const Token lit = lex_.take();
        return builder_->cint(static_cast<std::int32_t>(
            -static_cast<std::int64_t>(lit.value)));
      }
      return builder_->neg(parseUnary());
    }
    lex_.take();
    return builder_->eq(parseUnary(), builder_->cint(0));
  }

  ExprId parsePrimary() {
    const Token t = lex_.take();
    switch (t.kind) {
      case Tok::Int:
        return builder_->cint(t.value);
      case Tok::Ident: {
        const LocalId id = resolve(t);
        if (lex_.peek().kind == Tok::LBracket) {
          lex_.take();
          const Nest nest(*this);
          const ExprId index = parseExpr();
          expect(Tok::RBracket, "expected ']'");
          return builder_->load(builder_->use(id), index);
        }
        return builder_->use(id);
      }
      case Tok::LParen: {
        const Nest nest(*this);
        const ExprId e = parseExpr();
        expect(Tok::RParen, "expected ')'");
        return e;
      }
      default:
        fail(t, "expected an expression");
    }
  }

  Lexer lex_;
  std::optional<FunctionBuilder> builder_;
  std::map<std::string, LocalId> locals_;
  std::size_t depth_ = 0;  ///< live Nest guards
  std::vector<std::size_t> exprDepth_;  ///< tree depth per ExprId
};

}  // namespace

Function parseKernel(const std::string& source) {
  return Parser(source).parse();
}

Function parseKernelFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open kernel file: " + path);
  // Read at most one byte past the bound, in chunks, so an endless or huge
  // file costs the bound, not its size.
  std::string text;
  char chunk[16384];
  while (text.size() <= kMaxKernelFileBytes) {
    const std::size_t want =
        std::min(sizeof chunk, kMaxKernelFileBytes + 1 - text.size());
    in.read(chunk, static_cast<std::streamsize>(want));
    text.append(chunk, static_cast<std::size_t>(in.gcount()));
    if (!in) break;
  }
  if (text.size() > kMaxKernelFileBytes)
    throw Error("kernel file " + path + " is larger than " +
                std::to_string(kMaxKernelFileBytes) + " bytes");
  return parseKernel(text);
}

}  // namespace cgra::kir
