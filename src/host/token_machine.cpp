#include "host/token_machine.hpp"

#include "arch/operation.hpp"
#include "support/assert.hpp"

namespace cgra {

TokenRunResult TokenMachine::run(const BytecodeFunction& fn,
                                 std::vector<std::int32_t> initialLocals,
                                 HostMemory& heap, std::uint64_t maxBytecodes,
                                 const AcceleratorHook& accelerator) const {
  TokenRunResult result;
  result.locals = std::move(initialLocals);
  result.locals.resize(fn.numLocals, 0);
  result.backEdges.assign(fn.code.size(), 0);

  std::vector<std::int32_t> stack;
  stack.reserve(32);
  auto pop = [&]() -> std::int32_t {
    if (stack.empty()) throw Error("baseline: stack underflow in " + fn.name);
    const std::int32_t v = stack.back();
    stack.pop_back();
    return v;
  };

  std::size_t pc = 0;
  auto jump = [&](std::int32_t target) {
    const std::size_t from = pc - 1;
    pc = static_cast<std::size_t>(target);
    if (pc <= from) ++result.backEdges[from];
  };

  while (true) {
    if (pc >= fn.code.size())
      throw Error("baseline: pc out of range in " + fn.name);
    if (++result.bytecodes > maxBytecodes)
      throw Error("baseline: bytecode budget exceeded in " + fn.name);
    const BcInstr in = fn.code[pc];
    ++pc;
    switch (in.op) {
      case Bc::ICONST:
        stack.push_back(in.arg);
        result.cycles += costs_.constOp;
        break;
      case Bc::ILOAD:
        CGRA_ASSERT(static_cast<unsigned>(in.arg) < result.locals.size());
        stack.push_back(result.locals[static_cast<unsigned>(in.arg)]);
        result.cycles += costs_.localOp;
        break;
      case Bc::ISTORE:
        CGRA_ASSERT(static_cast<unsigned>(in.arg) < result.locals.size());
        result.locals[static_cast<unsigned>(in.arg)] = pop();
        result.cycles += costs_.localOp;
        break;
      case Bc::IADD:
      case Bc::ISUB:
      case Bc::IAND:
      case Bc::IOR:
      case Bc::IXOR:
      case Bc::ISHL:
      case Bc::ISHR:
      case Bc::IUSHR: {
        const std::int32_t b = pop();
        const std::int32_t a = pop();
        stack.push_back(evalArith(bcOp(in.op), a, b));
        result.cycles += costs_.aluOp;
        break;
      }
      case Bc::IMUL: {
        const std::int32_t b = pop();
        const std::int32_t a = pop();
        stack.push_back(evalArith(Op::IMUL, a, b));
        result.cycles += costs_.mulOp;
        break;
      }
      case Bc::INEG:
        stack.push_back(evalArith(Op::INEG, pop(), 0));
        result.cycles += costs_.aluOp;
        break;
      case Bc::IALOAD: {
        const std::int32_t index = pop();
        const std::int32_t handle = pop();
        stack.push_back(heap.load(handle, index));
        result.cycles += costs_.arrayOp;
        break;
      }
      case Bc::IASTORE: {
        const std::int32_t value = pop();
        const std::int32_t index = pop();
        const std::int32_t handle = pop();
        heap.store(handle, index, value);
        result.cycles += costs_.arrayOp;
        break;
      }
      case Bc::GOTO:
        jump(in.arg);
        result.cycles += costs_.gotoOp;
        break;
      case Bc::INVOKE_CGRA:
        if (!accelerator)
          throw Error("baseline: INVOKE_CGRA without accelerator hook in " +
                      fn.name);
        // The AMIDAR processor is idle during the run (§III); the hook's
        // cycle count covers transfers and execution.
        result.cycles += accelerator(in.arg, result.locals, heap);
        break;
      case Bc::IF_ICMPEQ:
      case Bc::IF_ICMPNE:
      case Bc::IF_ICMPLT:
      case Bc::IF_ICMPGE:
      case Bc::IF_ICMPGT:
      case Bc::IF_ICMPLE: {
        const std::int32_t b = pop();
        const std::int32_t a = pop();
        if (evalCompare(bcOp(in.op), a, b)) jump(in.arg);
        result.cycles += costs_.branchOp;
        break;
      }
      case Bc::HALT:
        if (!stack.empty())
          throw Error("baseline: stack not empty at HALT in " + fn.name);
        return result;
    }
  }
}

}  // namespace cgra
