// Text front end for the kernel IR: parses a small C-like kernel language
// into a kir::Function, so kernels can be supplied as files (see
// tools/cgra_tool.cpp --kernel-file) or embedded as text (the bundled
// kernels, src/apps/kernels.cpp).
//
// Grammar (C-like precedence; integers are 32-bit two's complement):
//
//   kernel     := "kernel" IDENT "(" [IDENT ("," IDENT)*] ")" block
//   block      := "{" stmt* "}"
//   stmt       := "var" IDENT ["=" expr] ";"          declare local
//               | IDENT "=" expr ";"                  assign
//               | IDENT "[" expr "]" "=" expr ";"     array store
//               | "if" "(" expr ")" block ["else" (block | ifstmt)]
//               | "while" "(" expr ")" block
//   expr       := logical-or with C precedence:
//                 || && | ^ & ==/!= </<=/>/>= <</>>/>>> +- * unary(- !)
//               | IDENT | IDENT "[" expr "]" | INT | "(" expr ")"
//
// Notes on semantics: `var x;` without an initializer emits no statement,
// so x keeps its host value (0 unless bound) and is live-in if read before
// written; `||`/`&&` are non-short-circuit (both sides evaluate;
// operands are normalized to 0/1 — this matches the CGRA's speculative
// execution, where both sides execute anyway); `!e` is `e == 0`;
// `>>` is arithmetic, `>>>` logical shift right.
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
