// Stack bytecode for the AMIDAR-like baseline processor.
//
// The paper's host is an AMIDAR processor executing Java bytecode directly
// (§III): each bytecode is broken into tokens that are distributed to
// functional units. We model the instruction set subset the evaluated
// kernels need (integer stack ops, locals, array access, compare-and-branch)
// — close to the corresponding Java bytecodes — so the KIR frontend can
// lower the *same kernel* both to the CGRA scheduler (via the CDFG) and to
// this baseline, making the speedup comparison of Table II meaningful.
//
// One table in bytecode.cpp states each opcode's name, what its argument
// means and the Op it evaluates; the lowering (kir/lower_bytecode.cpp), the
// token machine and the accelerated host's assembler read it through the
// lookups below instead of switching on opcodes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arch/operation.hpp"
#include "host/memory.hpp"

namespace cgra {

/// Baseline bytecode opcodes (names follow the JVM where applicable).
enum class Bc : std::uint8_t {
  ICONST,   ///< push immediate
  ILOAD,    ///< push locals[a]
  ISTORE,   ///< locals[a] = pop
  IADD,
  ISUB,
  IMUL,
  INEG,
  IAND,
  IOR,
  IXOR,
  ISHL,
  ISHR,
  IUSHR,
  IALOAD,   ///< index = pop, handle = pop; push heap[handle][index]
  IASTORE,  ///< value = pop, index = pop, handle = pop
  GOTO,     ///< pc = a
  IF_ICMPEQ,  ///< b = pop, a' = pop; branch to a when a' == b
  IF_ICMPNE,
  IF_ICMPLT,
  IF_ICMPGE,
  IF_ICMPGT,
  IF_ICMPLE,
  /// Patched instruction (paper Fig. 1: "Patch original bytecode sequence"):
  /// forwards execution to the CGRA accelerator identified by `arg`. The
  /// machine delegates to a registered AcceleratorHook; the hook transfers
  /// live-ins, runs the schedule, writes live-outs back and returns the
  /// invocation's cycle cost.
  INVOKE_CGRA,
  HALT,
};

/// Instruction: opcode plus one immediate (constant / local index / target).
struct BcInstr {
  Bc op = Bc::HALT;
  std::int32_t arg = 0;
};

/// A compiled bytecode function.
struct BytecodeFunction {
  std::string name;
  unsigned numLocals = 0;
  std::vector<BcInstr> code;
};

/// What an instruction's argument means.
enum class BcArg : std::uint8_t {
  None,    ///< no argument
  Value,   ///< a constant, a local index or a kernel id
  Target,  ///< a jump target (a pc)
};

/// Human-readable opcode name.
const char* bcName(Bc op);

/// What `op`'s argument means.
BcArg bcArg(Bc op);

/// The Op that `op` evaluates: the arithmetic op, or the comparison a
/// compare-and-branch tests; Op::NOP for every other instruction.
Op bcOp(Bc op);

/// The instruction that evaluates arithmetic op `op`; throws cgra::Error
/// when there is none.
Bc bcFor(Op op);

/// The compare-and-branch that jumps when comparison `cmp` holds, or, with
/// `taken == false`, when it fails; throws cgra::Error for a non-comparison.
Bc branchFor(Op cmp, bool taken = true);

/// Disassembles to one instruction per line.
std::string disassemble(const BytecodeFunction& fn);

}  // namespace cgra
