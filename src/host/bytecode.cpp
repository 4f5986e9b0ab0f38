#include "host/bytecode.hpp"

#include <array>
#include <sstream>

#include "support/assert.hpp"

namespace cgra {

namespace {

struct BcInfo {
  const char* name;
  BcArg arg;
  Op op;  ///< the Op the instruction evaluates; Op::NOP when none
};

/// The instruction set, one row per Bc in enum order: the one place that
/// maps between bytecodes and Ops. The IF_ICMP rows come in negated pairs
/// (eq/ne, lt/ge, gt/le), which branchFor relies on.
constexpr auto kBcTable = std::to_array<BcInfo>({
    {"iconst", BcArg::Value, Op::NOP},
    {"iload", BcArg::Value, Op::NOP},
    {"istore", BcArg::Value, Op::NOP},
    {"iadd", BcArg::None, Op::IADD},
    {"isub", BcArg::None, Op::ISUB},
    {"imul", BcArg::None, Op::IMUL},
    {"ineg", BcArg::None, Op::INEG},
    {"iand", BcArg::None, Op::IAND},
    {"ior", BcArg::None, Op::IOR},
    {"ixor", BcArg::None, Op::IXOR},
    {"ishl", BcArg::None, Op::ISHL},
    {"ishr", BcArg::None, Op::ISHR},
    {"iushr", BcArg::None, Op::IUSHR},
    {"iaload", BcArg::None, Op::NOP},
    {"iastore", BcArg::None, Op::NOP},
    {"goto", BcArg::Target, Op::NOP},
    {"if_icmpeq", BcArg::Target, Op::IFEQ},
    {"if_icmpne", BcArg::Target, Op::IFNE},
    {"if_icmplt", BcArg::Target, Op::IFLT},
    {"if_icmpge", BcArg::Target, Op::IFGE},
    {"if_icmpgt", BcArg::Target, Op::IFGT},
    {"if_icmple", BcArg::Target, Op::IFLE},
    {"invoke_cgra", BcArg::Value, Op::NOP},
    {"halt", BcArg::None, Op::NOP},
});

static_assert(kBcTable.size() == static_cast<std::size_t>(Bc::HALT) + 1,
              "one row per opcode");
static_assert(static_cast<unsigned>(Bc::IF_ICMPEQ) % 2 == 0,
              "branchFor pairs IF_ICMP rows by index");

const BcInfo& info(Bc op) {
  CGRA_ASSERT(static_cast<std::size_t>(op) < kBcTable.size());
  return kBcTable[static_cast<std::size_t>(op)];
}

/// The first instruction of `arg` kind that evaluates `op`.
Bc find(Op op, BcArg arg) {
  if (op != Op::NOP)
    for (std::size_t i = 0; i < kBcTable.size(); ++i)
      if (kBcTable[i].op == op && kBcTable[i].arg == arg)
        return static_cast<Bc>(i);
  throw Error(std::string("no bytecode evaluates ") + opName(op));
}

}  // namespace

const char* bcName(Bc op) { return info(op).name; }

BcArg bcArg(Bc op) { return info(op).arg; }

Op bcOp(Bc op) { return info(op).op; }

Bc bcFor(Op op) { return find(op, BcArg::None); }

Bc branchFor(Op cmp, bool taken) {
  const auto b = static_cast<unsigned>(find(cmp, BcArg::Target));
  return static_cast<Bc>(taken ? b : b ^ 1u);
}

std::string disassemble(const BytecodeFunction& fn) {
  std::ostringstream os;
  os << fn.name << " (" << fn.numLocals << " locals, " << fn.code.size()
     << " instructions)\n";
  for (std::size_t pc = 0; pc < fn.code.size(); ++pc) {
    const BcInstr& in = fn.code[pc];
    os << "  " << pc << ": " << bcName(in.op);
    if (bcArg(in.op) != BcArg::None) os << ' ' << in.arg;
    os << '\n';
  }
  return os.str();
}

}  // namespace cgra
