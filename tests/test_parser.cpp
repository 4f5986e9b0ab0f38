// Tests for the kernel-language parser: grammar coverage, precedence,
// diagnostics with line/column, and end-to-end equivalence (parsed kernels
// run on the CGRA and match the interpreter).
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "arch/factory.hpp"
#include "kir/interp.hpp"
#include "kir/lower_cdfg.hpp"
#include "kir/parser.hpp"
#include "kir/passes/pipeline.hpp"
#include "sched/scheduler.hpp"
#include "sim/simulator.hpp"

namespace cgra::kir {
namespace {

std::int32_t evalKernel(const std::string& src,
                        std::vector<std::int32_t> locals,
                        const std::string& resultLocal,
                        HostMemory* heap = nullptr) {
  const Function fn = parseKernel(src);
  HostMemory localHeap;
  HostMemory& h = heap ? *heap : localHeap;
  Interpreter interp;
  const auto r = interp.run(fn, std::move(locals), h);
  return r.locals[fn.localByName(resultLocal)];
}

TEST(Parser, MinimalKernel) {
  const Function fn = parseKernel("kernel f(a) { var x = a + 1; }");
  EXPECT_EQ(fn.name(), "f");
  EXPECT_EQ(fn.numLocals(), 2u);
  EXPECT_TRUE(fn.local(0).isParameter);
  EXPECT_FALSE(fn.local(1).isParameter);
}

TEST(Parser, PrecedenceMatchesC) {
  EXPECT_EQ(evalKernel("kernel f(a) { var r = 2 + 3 * 4; }", {0}, "r"), 14);
  EXPECT_EQ(evalKernel("kernel f(a) { var r = (2 + 3) * 4; }", {0}, "r"), 20);
  EXPECT_EQ(evalKernel("kernel f(a) { var r = 1 << 2 + 1; }", {0}, "r"), 8)
      << "shift binds looser than +";
  EXPECT_EQ(evalKernel("kernel f(a) { var r = 7 & 3 == 3; }", {0}, "r"), 1)
      << "== binds tighter than &";
  EXPECT_EQ(evalKernel("kernel f(a) { var r = 1 | 2 ^ 2; }", {0}, "r"), 1);
  EXPECT_EQ(evalKernel("kernel f(a) { var r = -a * 2; }", {5}, "r"), -10);
  EXPECT_EQ(evalKernel("kernel f(a) { var r = !a; }", {5}, "r"), 0);
  EXPECT_EQ(evalKernel("kernel f(a) { var r = !a; }", {0}, "r"), 1);
}

/// The binary operator levels, loosest first, written out here rather than
/// read from kBinaryOperators.
const std::vector<std::vector<std::string>> kLevels = {
    {"||"},          {"&&"},          {"|"},
    {"^"},           {"&"},           {"==", "!="},
    {"<", "<=", ">", ">="},           {"<<", ">>", ">>>"},
    {"+", "-"},      {"*"},
};

/// The right-hand side of `r = ...;` as the printer writes it.
std::string printedResult(const std::string& expr) {
  const std::string printed =
      parseKernel("kernel f(a, b, c) { var r = " + expr + "; }").toString();
  const std::size_t at = printed.find("r = ");
  if (at == std::string::npos) return printed;
  return printed.substr(at + 4, printed.find(';', at) - at - 4);
}

TEST(Parser, AdjacentLevelsGroupByPrecedence) {
  for (std::size_t level = 0; level + 1 < kLevels.size(); ++level) {
    for (const std::string& lo : kLevels[level]) {
      for (const std::string& hi : kLevels[level + 1]) {
        EXPECT_EQ(printedResult("a " + lo + " b " + hi + " c"),
                  "(a " + lo + " (b " + hi + " c))");
        EXPECT_EQ(printedResult("a " + hi + " b " + lo + " c"),
                  "((a " + hi + " b) " + lo + " c)");
      }
    }
  }
}

TEST(Parser, OneLevelGroupsLeft) {
  for (const std::vector<std::string>& level : kLevels)
    for (const std::string& x : level)
      for (const std::string& y : level)
        EXPECT_EQ(printedResult("a " + x + " b " + y + " c"),
                  "((a " + x + " b) " + y + " c)");
}

TEST(Parser, UnaryBindsTighterThanMultiply) {
  EXPECT_EQ(printedResult("-a * b"), "((-a) * b)");
  EXPECT_EQ(printedResult("a * -b"), "(a * (-b))");
  EXPECT_EQ(printedResult("!a * b"), "((a == 0) * b)");
  EXPECT_EQ(printedResult("a * !b"), "(a * (b == 0))");
  EXPECT_EQ(printedResult("-2147483648"), "-2147483648");
}

TEST(Parser, ShiftVariants) {
  EXPECT_EQ(evalKernel("kernel f(a) { var r = a >> 1; }", {-8}, "r"), -4);
  EXPECT_EQ(evalKernel("kernel f(a) { var r = a >>> 1; }", {-8}, "r"),
            0x7FFFFFFC);
  EXPECT_EQ(evalKernel("kernel f(a) { var r = a << 3; }", {3}, "r"), 24);
}

TEST(Parser, LiteralsIncludingHexAndIntMin) {
  EXPECT_EQ(evalKernel("kernel f(a) { var r = 0xFF + 1; }", {0}, "r"), 256);
  EXPECT_EQ(evalKernel("kernel f(a) { var r = 0xdeadbeef; }", {0}, "r"),
            static_cast<std::int32_t>(0xDEADBEEFu));
  EXPECT_EQ(evalKernel("kernel f(a) { var r = -2147483648; }", {0}, "r"),
            std::numeric_limits<std::int32_t>::min());
}

TEST(Parser, LogicalOperatorsNormalize) {
  EXPECT_EQ(evalKernel("kernel f(a,b) { var r = a && b; }", {5, 7}, "r"), 1);
  EXPECT_EQ(evalKernel("kernel f(a,b) { var r = a && b; }", {5, 0}, "r"), 0);
  EXPECT_EQ(evalKernel("kernel f(a,b) { var r = a || b; }", {0, 7}, "r"), 1);
  EXPECT_EQ(evalKernel("kernel f(a,b) { var r = a || b; }", {0, 0}, "r"), 0);
}

TEST(Parser, ControlFlowAndArrays) {
  const std::string src = R"(
    // sum of array maxima against a floor value
    kernel f(data, n, floor) {
      var sum = 0;
      var i = 0;
      while (i < n) {
        var v = data[i];       /* block comment */
        if (v < floor) { v = floor; } else if (v > 100) { v = 100; }
        sum = sum + v;
        data[i] = v;
        i = i + 1;
      }
    }
  )";
  HostMemory heap;
  const Handle h = heap.alloc({-5, 50, 200});
  EXPECT_EQ(evalKernel(src, {h, 3, 0}, "sum", &heap), 0 + 50 + 100);
  EXPECT_EQ(heap.array(h)[0], 0);
  EXPECT_EQ(heap.array(h)[2], 100);
}

TEST(Parser, DiagnosticsCarryLineAndColumn) {
  auto expectError = [](const std::string& src, const std::string& what) {
    try {
      parseKernel(src);
      FAIL() << "expected error for: " << src;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };
  expectError("kernel f(a) { x = 1; }", "undeclared identifier 'x'");
  expectError("kernel f(a) { var a = 1; }", "duplicate declaration");
  expectError("kernel f(a) { var x = ; }", "expected an expression");
  expectError("kernel f(a) { var x = 1 }", "expected ';'");
  expectError("kernel f(a) {", "unterminated block");
  expectError("kernel f(a) { var x = 99999999999; }", "too large");
  expectError("nope f() {}", "expected 'kernel'");
  try {
    parseKernel("kernel f(a) {\n  var x = $;\n}");
    FAIL();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

/// A kernel nesting `ifs` if-blocks inside its body block, around an
/// expression wrapped in `parens` parentheses: 1 + ifs + parens levels.
std::string nestedKernel(std::size_t ifs, std::size_t parens) {
  std::string src = "kernel deep(x) {\n  var y = 0;\n";
  for (std::size_t i = 0; i < ifs; ++i) src += "if (x) { ";
  src += "y = " + std::string(parens, '(') + "x + 1" +
         std::string(parens, ')') + ";";
  for (std::size_t i = 0; i < ifs; ++i) src += " }";
  return src + "\n}\n";
}

TEST(Parser, RejectsNestingDeeperThanTheLimit) {
  // Every construct that nests counts, and 200,000 levels fail as cleanly
  // as one level too many instead of overflowing the stack.
  const std::size_t over = kMaxNestingDepth;  // + the body block
  std::string elseIfs = "kernel f(x) { var y = 0; if (x == 0) { y = 1; }";
  for (std::size_t i = 0; i < over; ++i) elseIfs += " else if (x == 1) { }";
  const std::string sources[] = {
      nestedKernel(0, over),
      nestedKernel(over, 0),
      nestedKernel(0, 200000),
      nestedKernel(200000, 0),
      "kernel f(x) { var y = " + std::string(over, '-') + "x; }",
      "kernel f(x) { var y = " + std::string(over, '!') + "x; }",
      "kernel f(x, a) { var y = " + [&] {
        std::string e;
        for (std::size_t i = 0; i < over; ++i) e += "a[";
        return e + "0" + std::string(over, ']');
      }() + "; }",
      elseIfs + " }",
  };
  for (const std::string& src : sources) {
    try {
      parseKernel(src);
      ADD_FAILURE() << "accepted a kernel nested past the limit";
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("nesting deeper than " +
                          std::to_string(kMaxNestingDepth) + " levels"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("line "), std::string::npos) << what;
      EXPECT_NE(what.find("column "), std::string::npos) << what;
    }
  }
}

/// A kernel storing a chain of `terms` operands joined by `op`.
std::string chainKernel(std::size_t terms, const std::string& op) {
  std::string src = "kernel chain(x, a) {\n  a[0] = x";
  for (std::size_t i = 1; i < terms; ++i) src += " " + op + " x";
  return src + ";\n}\n";
}

TEST(Parser, RejectsOperatorChainsDeeperThanTheLimit) {
  // A chain nests nothing, but it builds a left-deep tree one level per
  // term, which the passes after the parser walk recursively. 50,000
  // terms used to overflow the stack of `cgra-tool schedule`.
  const std::string whileChain = [] {
    std::string src = "kernel f(x) {\n  while (x";
    for (std::size_t i = 1; i < kMaxNestingDepth; ++i) src += " + x";
    return src + ") { x = 0; }\n}\n";
  }();
  std::vector<std::string> sources = {chainKernel(50000, "+"), whileChain};
  for (const char* op : {"+", "-", "*", "&", "|", "^", "<<", "==", "<", "&&",
                         "||"})
    sources.push_back(chainKernel(kMaxNestingDepth + 1, op));
  for (const std::string& src : sources) {
    try {
      parseKernel(src);
      ADD_FAILURE() << "accepted a chain deeper than the limit: "
                    << src.substr(0, 40);
    } catch (const Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("expression tree deeper than " +
                          std::to_string(kMaxNestingDepth) + " levels"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find("line 2, column "), std::string::npos) << what;
    }
  }
}

TEST(Parser, ChainAtTheLimitRunsTheWholePath) {
  // The longest accepted chain lowers without exhausting the stack and
  // either schedules or fails typed.
  const Function fn = parseKernel(chainKernel(kMaxNestingDepth, "+"));
  const Cdfg graph = lowerToCdfg(runFrontendPipeline(fn).fn).graph;
  EXPECT_GE(graph.numNodes(), kMaxNestingDepth - 1) << "one add per '+'";
  const ScheduleReport r =
      Scheduler(makeMesh(9)).schedule(ScheduleRequest(graph));
  EXPECT_TRUE(r.ok || r.failure.reason == FailureReason::ContextBudget)
      << failureReasonName(r.failure.reason);
}

TEST(Parser, KernelAtTheNestingLimitSchedules) {
  // The deepest accepted kernels run the whole path without exhausting the
  // stack: parentheses cost the parser the most stack per level, if-blocks
  // and prefix operators build the deepest trees for the passes after it.
  const Function parens = parseKernel(nestedKernel(0, kMaxNestingDepth - 1));
  const Cdfg graph = lowerToCdfg(runFrontendPipeline(parens).fn).graph;
  EXPECT_TRUE(Scheduler(makeMesh(9)).schedule(ScheduleRequest(graph)).ok);

  const std::string prefix =
      "kernel f(x) { var y = " + std::string(kMaxNestingDepth - 1, '!') +
      "x; }";
  for (const std::string& src : {nestedKernel(kMaxNestingDepth - 1, 0), prefix})
    EXPECT_GT(lowerToCdfg(runFrontendPipeline(parseKernel(src)).fn)
                  .graph.numNodes(),
              0u);
}

TEST(Parser, ParsedKernelRunsOnTheCgra) {
  // The ADPCM-style inner structure written in the text language.
  const std::string src = R"(
    kernel vpdiff(delta, step) {
      var vp = step >> 3;
      var bit = 4;
      var sh = 0;
      while (bit >= 1) {
        if ((delta & bit) != 0) { vp = vp + (step >> sh); }
        bit = bit >> 1;
        sh = sh + 1;
      }
    }
  )";
  const Function fn = parseKernel(src);

  HostMemory goldenHeap;
  Interpreter interp;
  const auto golden = interp.run(fn, {5, 1024}, goldenHeap);

  const LoweringResult lowered = lowerToCdfg(fn);
  const Composition comp = makeMesh(4);
  const Schedule sched = Scheduler(comp).schedule(ScheduleRequest(lowered.graph)).orThrow().schedule;
  std::map<VarId, std::int32_t> liveIns;
  for (const LiveBinding& lb : sched.liveIns)
    liveIns[lb.var] = lb.var == lowered.localToVar[0] ? 5 : 1024;
  HostMemory heap;
  const SimResult r = Simulator(comp, sched).run(liveIns, heap);
  EXPECT_EQ(r.liveOuts.at(lowered.localToVar[fn.localByName("vp")]),
            golden.locals[fn.localByName("vp")]);
}

TEST(Parser, RoundTripThroughToString) {
  // toString produces pseudo-C close enough to re-parse for simple kernels.
  const std::string src =
      "kernel f(a, b) { var r = 0; while (r < a) { r = r + b; } }";
  const Function fn = parseKernel(src);
  const std::string printed = fn.toString();
  EXPECT_NE(printed.find("while (r < a)"), std::string::npos);
  EXPECT_NE(printed.find("r = (r + b);"), std::string::npos);
}

TEST(Parser, ShortCircuitAndOr) {
  EXPECT_EQ(evalKernel("kernel f(a,b) { var r = a > 1 && b > 1; }", {2, 2},
                       "r"),
            1);
  EXPECT_EQ(evalKernel("kernel f(a,b) { var r = a > 1 && b > 1; }", {2, 0},
                       "r"),
            0);
  EXPECT_EQ(evalKernel("kernel f(a,b) { var r = a > 1 || b > 1; }", {0, 2},
                       "r"),
            1);
  // Precedence: && binds tighter than ||; both bind looser than compares.
  EXPECT_EQ(
      evalKernel("kernel f(a,b,c) { var r = a == 1 || b == 1 && c == 1; }",
                 {1, 0, 0}, "r"),
      1);
  EXPECT_EQ(
      evalKernel("kernel f(a,b,c) { var r = a == 1 || b == 1 && c == 1; }",
                 {0, 1, 0}, "r"),
      0);
}

TEST(Parser, ShortCircuitIsLazy) {
  // The right operand must not evaluate when the left decides: the guarded
  // load is out of bounds whenever it executes with n == 0.
  const std::string srcAnd =
      "kernel f(data, n) { var r = n > 0 && data[n - 1] > 2; }";
  const std::string srcOr =
      "kernel f(data, n) { var r = n == 0 || data[n - 1] > 2; }";
  HostMemory heap;
  const Handle h = heap.alloc(std::vector<std::int32_t>{5});
  EXPECT_EQ(evalKernel(srcAnd, {h, 1}, "r", &heap), 1);
  EXPECT_EQ(evalKernel(srcAnd, {h, 0}, "r", &heap), 0);
  EXPECT_EQ(evalKernel(srcOr, {h, 0}, "r", &heap), 1);
  EXPECT_EQ(evalKernel(srcOr, {h, 1}, "r", &heap), 1);
}

TEST(Parser, BreakAndContinue) {
  // break: stop summing at the first zero; continue: skip negatives.
  const std::string src = R"(
    kernel f(data, n) {
      var sum = 0;
      var i = 0;
      while (i < n) {
        var v = data[i];
        i = i + 1;
        if (v == 0) { break; }
        if (v < 0) { continue; }
        sum = sum + v;
      }
    }
  )";
  HostMemory heap;
  const Handle h = heap.alloc({3, -7, 4, 0, 99});
  EXPECT_EQ(evalKernel(src, {h, 5}, "sum", &heap), 7);
}

TEST(Parser, ReturnExitsEarlyAndBindsResult) {
  const std::string src = R"(
    kernel f(data, n, needle) {
      var i = 0;
      while (i < n) {
        if (data[i] == needle) { return i; }
        i = i + 1;
      }
      return -1;
    }
  )";
  HostMemory heap;
  const Handle h = heap.alloc({10, 20, 30});
  EXPECT_EQ(evalKernel(src, {h, 3, 20}, "result", &heap), 1);
  EXPECT_EQ(evalKernel(src, {h, 3, 99}, "result", &heap), -1);
  // A bare `return;` needs no result local.
  const Function fn =
      parseKernel("kernel f(a) { if (a == 0) { return; } var r = 1; }");
  EXPECT_THROW(fn.localByName("result"), Error);
}

TEST(Parser, SwitchSelectsArm) {
  const std::string src = R"(
    kernel f(op, a, b) {
      var r = 0;
      switch (op) {
        case 0: { r = a + b; }
        case 1: { r = a - b; }
        case -2: { r = a * b; }
        default: { r = -1; }
      }
    }
  )";
  EXPECT_EQ(evalKernel(src, {0, 7, 3}, "r"), 10);
  EXPECT_EQ(evalKernel(src, {1, 7, 3}, "r"), 4);
  EXPECT_EQ(evalKernel(src, {-2, 7, 3}, "r"), 21);
  EXPECT_EQ(evalKernel(src, {9, 7, 3}, "r"), -1);
  // No fall-through and no default: a missed switch is a no-op.
  const std::string noDefault =
      "kernel f(op) { var r = 5; switch (op) { case 1: { r = 9; } } }";
  EXPECT_EQ(evalKernel(noDefault, {1}, "r"), 9);
  EXPECT_EQ(evalKernel(noDefault, {2}, "r"), 5);
}

TEST(Parser, IrregularConstructDiagnostics) {
  auto expectError = [](const std::string& src, const std::string& what) {
    try {
      parseKernel(src);
      FAIL() << "expected error for: " << src;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };
  expectError("kernel f(a) { break; }", "break outside of a loop");
  expectError("kernel f(a) { continue; }", "continue outside of a loop");
  expectError(
      "kernel f(a) { switch (a) { default: { a = 1; } case 1: { a = 2; } } }",
      "'case' after 'default'");
  expectError(
      "kernel f(a) { switch (a) { default: { a = 1; } default: { a = 2; } } }",
      "duplicate 'default'");
  expectError("kernel f(a) { switch (a) { case a: { a = 1; } } }",
              "expected integer case value");
  expectError("kernel f(a) { switch (a) { } }",
              "switch without any case or default arm");
  expectError(
      "kernel f(a) { switch (a) { case 3: { a = 1; } case 3: { a = 2; } } }",
      "duplicate switch case 3");
  // `return expr;` materializes the implicit `result` local, so a later
  // explicit declaration collides with it.
  expectError("kernel f(a) { if (a > 0) { return a; } var result = 0; }",
              "duplicate declaration");
}

TEST(Parser, NewConstructsPrintStructurally) {
  const std::string src = R"(
    kernel f(op, n) {
      var r = 0;
      while (r < n) {
        if (op == 0 && r > 2) { break; }
        if (op == 1 || r == 0) { r = r + 2; continue; }
        switch (op) {
          case 2: { r = r + 1; }
          default: { return r; }
        }
      }
    }
  )";
  const std::string printed = parseKernel(src).toString();
  for (const char* piece :
       {"break;", "continue;", "return r;", "case 2: {", "default: {",
        "((op == 0) && (r > 2))", "((op == 1) || (r == 0))"})
    EXPECT_NE(printed.find(piece), std::string::npos)
        << "missing " << piece << " in:\n" << printed;
}

TEST(Parser, FileLoading) {
  const std::string path = ::testing::TempDir() + "/k.kir";
  {
    std::ofstream out(path);
    out << "kernel f(a) { var r = a * a; }";
  }
  const Function fn = parseKernelFile(path);
  EXPECT_EQ(fn.name(), "f");
  EXPECT_THROW(parseKernelFile("/nonexistent.kir"), Error);
}

TEST(Parser, KernelFileSizeIsBounded) {
  // A kernel padded with blanks to exactly the bound parses; one more
  // byte is a typed error, raised without parsing.
  const std::string path = ::testing::TempDir() + "/bound.kir";
  const std::string kernel = "kernel f(a) { var r = a * a; }";
  const auto write = [&](std::size_t size) {
    std::ofstream out(path, std::ios::binary);
    out << kernel << std::string(size - kernel.size(), ' ');
  };
  write(kMaxKernelFileBytes);
  EXPECT_EQ(parseKernelFile(path).name(), "f");
  write(kMaxKernelFileBytes + 1);
  try {
    parseKernelFile(path);
    ADD_FAILURE() << "a file one byte over the bound parsed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("larger than"), std::string::npos)
        << e.what();
  }
}

TEST(Parser, EndlessKernelFileStopsAtTheBound) {
  // /dev/zero never ends: the reader stops one byte past the bound. Runs
  // under a ctest timeout in case the bound ever goes.
  EXPECT_THROW(parseKernelFile("/dev/zero"), Error);
}

}  // namespace
}  // namespace cgra::kir
