// Text front end for the kernel IR: parses a small C-like kernel language
// into a kir::Function, so kernels can be supplied as files (see
// tools/cgra_tool.cpp --kernel-file) or embedded as text (the bundled
// kernels, src/apps/kernels.cpp).
//
// Grammar (docs/KERNEL_LANGUAGE.md; integers are 32-bit two's complement):
//
//   kernel  := "kernel" IDENT "(" [IDENT ("," IDENT)*] ")" block
//   block   := "{" stmt* "}"
//   stmt    := "var" IDENT ["=" expr] ";"         declare local
//            | IDENT "=" expr ";"                 assign
//            | IDENT "[" expr "]" "=" expr ";"    array store
//            | "if" "(" expr ")" block ["else" (block | if-stmt)]
//            | "while" "(" expr ")" block
//            | "break" ";" | "continue" ";"       innermost loop
//            | "return" [expr] ";"                expr assigns `result`
//            | "switch" "(" expr ")" "{" case* ["default" ":" block] "}"
//   case    := "case" ["-"] INT ":" block         no fall-through
//   expr    := unary (OPERATOR unary)*
//   unary   := "-" unary | "!" unary | primary
//   primary := IDENT | IDENT "[" expr "]" | INT | "(" expr ")"
//
// OPERATOR is any spelling of kBinaryOperators (kir/kir.hpp), which also
// gives its precedence level; one precedence-climbing loop reads it, and
// every level groups to the left. Unary operators bind tighter than all
// of them.
//
// Notes on semantics: `var x;` without an initializer emits no statement,
// so x keeps its host value (0 unless bound) and is live-in if read before
// written; `||`/`&&` short-circuit (the rhs runs only when the lhs does not
// decide) and yield 0/1; `!e` is `e == 0`; `-INT` folds to a constant, so
// -2147483648 is expressible; `>>` is arithmetic, `>>>` logical shift
// right; an if/while condition that is not a comparison, `&&` or `||`
// means `expr != 0`.
#pragma once

#include <cstddef>
#include <string>

#include "kir/kir.hpp"

namespace cgra::kir {

/// Deepest syntactic nesting `parseKernel` accepts: each block, else-if,
/// parenthesis, subscript and prefix operator is one level. No expression
/// tree may be deeper either, so a chain `x + x + ...` of N terms counts N
/// levels. The parser and the passes after it recurse once per level, so
/// untrusted input (a served `kernelFile`) must not choose the depth. A
/// parenthesis costs the parser about 4 KiB of stack (9 KiB under ASan), so
/// the limit fits an 8 MiB thread stack with room to spare; real kernels
/// nest fewer than a dozen levels.
inline constexpr std::size_t kMaxNestingDepth = 640;

/// Parses one kernel; throws cgra::Error with line/column on syntax errors,
/// undeclared identifiers, duplicate declarations or nesting deeper than
/// kMaxNestingDepth.
Function parseKernel(const std::string& source);

/// Largest kernel file `parseKernelFile` reads. A served request names the
/// file, so its size must not choose the worker's memory (`/dev/zero` never
/// ends). Real kernels are a few KiB.
inline constexpr std::size_t kMaxKernelFileBytes = std::size_t{1} << 20;

/// Reads and parses a kernel file; throws cgra::Error when it cannot be
/// opened or holds more than kMaxKernelFileBytes.
Function parseKernelFile(const std::string& path);

}  // namespace cgra::kir
