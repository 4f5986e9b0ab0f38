#include "sched/schedule.hpp"

#include <algorithm>
#include <sstream>

namespace cgra {

std::vector<const ScheduledOp*> Schedule::opsByTime() const {
  std::vector<const ScheduledOp*> out;
  out.reserve(ops.size());
  for (const ScheduledOp& op : ops) out.push_back(&op);
  std::sort(out.begin(), out.end(),
            [](const ScheduledOp* a, const ScheduledOp* b) {
              if (a->start != b->start) return a->start < b->start;
              return a->pe < b->pe;
            });
  return out;
}

std::string Schedule::toString(const Composition& comp) const {
  std::ostringstream os;
  os << "schedule: " << length << " contexts on " << comp.name() << "\n";
  auto sorted = opsByTime();
  std::size_t branchIdx = 0;
  std::vector<const BranchOp*> sortedBranches;
  for (const BranchOp& b : branches) sortedBranches.push_back(&b);
  std::sort(sortedBranches.begin(), sortedBranches.end(),
            [](const BranchOp* a, const BranchOp* b) { return a->time < b->time; });
  std::vector<const CBoxOp*> sortedCbox;
  for (const CBoxOp& c : cboxOps) sortedCbox.push_back(&c);
  std::sort(sortedCbox.begin(), sortedCbox.end(),
            [](const CBoxOp* a, const CBoxOp* b) { return a->time < b->time; });
  std::size_t cboxIdx = 0;

  std::size_t i = 0;
  for (unsigned t = 0; t < length; ++t) {
    bool anything = false;
    auto header = [&]() {
      if (!anything) os << "t" << t << ":\n";
      anything = true;
    };
    for (; i < sorted.size() && sorted[i]->start == t; ++i) {
      header();
      const ScheduledOp& op = *sorted[i];
      os << "  PE" << op.pe << " " << opName(op.op);
      if (op.duration > 1) os << "(x" << op.duration << ")";
      for (const OperandSource& s : op.src) {
        switch (s.kind) {
          case OperandSource::Kind::None: break;
          case OperandSource::Kind::Own: os << " r" << s.vreg; break;
          case OperandSource::Kind::Route:
            os << " PE" << s.srcPE << ".r" << s.vreg;
            break;
          case OperandSource::Kind::Imm: os << " #" << s.imm; break;
        }
      }
      if (op.writesDest) os << " -> r" << op.destVreg;
      if (op.pred)
        os << " [pred " << (op.pred->polarity ? "" : "!") << "c"
           << op.pred->slot << "]";
      if (op.emitsStatus) os << " => status";
      if (!op.label.empty()) os << "  ; " << op.label;
      os << "\n";
    }
    for (; cboxIdx < sortedCbox.size() && sortedCbox[cboxIdx]->time == t;
         ++cboxIdx) {
      header();
      const CBoxOp& c = *sortedCbox[cboxIdx];
      os << "  CBOX c" << c.writeSlot << " = ";
      bool first = true;
      for (const CBoxOp::Input& in : c.inputs) {
        if (!first)
          os << (c.logic == CBoxOp::Logic::Or ? " | " : " & ");
        first = false;
        if (!in.polarity) os << '!';
        if (in.kind == CBoxOp::Input::Kind::Status)
          os << "status";
        else
          os << 'c' << in.slot;
      }
      os << "\n";
    }
    for (; branchIdx < sortedBranches.size() &&
           sortedBranches[branchIdx]->time == t;
         ++branchIdx) {
      header();
      const BranchOp& b = *sortedBranches[branchIdx];
      os << "  CCU ";
      if (b.conditional)
        os << "if " << (b.pred.polarity ? "" : "!") << 'c' << b.pred.slot
           << ' ';
      os << "goto t" << b.target << "\n";
    }
  }
  return os.str();
}

std::uint64_t Schedule::fingerprint() const {
  // FNV-1a, folding every field in declaration order so any divergence —
  // op placement, operand routing, predication, C-Box/CCU programs, live
  // bindings — changes the digest.
  std::uint64_t h = 14695981039346656037ull;
  auto byte = [&h](std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  };
  auto word = [&byte](std::uint64_t v) {
    for (unsigned i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  };
  auto str = [&byte, &word](const std::string& s) {
    word(s.size());
    for (char c : s) byte(static_cast<std::uint8_t>(c));
  };
  auto pred = [&word](const std::optional<PredRef>& p) {
    word(p ? 1 : 0);
    if (p) {
      word(p->slot);
      word(p->polarity ? 1 : 0);
    }
  };

  word(length);
  word(ops.size());
  for (const ScheduledOp& op : ops) {
    word(op.node);
    word(static_cast<std::uint64_t>(op.op));
    word(op.pe);
    word(op.start);
    word(op.duration);
    for (const OperandSource& s : op.src) {
      word(static_cast<std::uint64_t>(s.kind));
      word(s.srcPE);
      word(s.vreg);
      word(static_cast<std::uint64_t>(static_cast<std::uint32_t>(s.imm)));
    }
    word(op.writesDest ? 1 : 0);
    word(op.destVreg);
    pred(op.pred);
    word(op.emitsStatus ? 1 : 0);
    str(op.label);
  }
  word(cboxOps.size());
  for (const CBoxOp& c : cboxOps) {
    word(c.time);
    word(c.inputs.size());
    for (const CBoxOp::Input& in : c.inputs) {
      word(static_cast<std::uint64_t>(in.kind));
      word(in.slot);
      word(in.polarity ? 1 : 0);
    }
    word(static_cast<std::uint64_t>(c.logic));
    word(c.writeSlot);
    word(c.cond);
  }
  word(branches.size());
  for (const BranchOp& b : branches) {
    word(b.time);
    word(b.target);
    word(b.conditional ? 1 : 0);
    word(b.pred.slot);
    word(b.pred.polarity ? 1 : 0);
    word(b.loop);
  }
  word(loops.size());
  for (const LoopInterval& l : loops) {
    word(l.loop);
    word(l.start);
    word(l.end);
  }
  auto bindings = [&word](const std::vector<LiveBinding>& v) {
    word(v.size());
    for (const LiveBinding& b : v) {
      word(b.var);
      word(b.pe);
      word(b.vreg);
    }
  };
  bindings(liveIns);
  bindings(liveOuts);
  bindings(varHomes);
  word(vregsPerPE.size());
  for (unsigned v : vregsPerPE) word(v);
  word(cboxSlotsUsed);
  return h;
}

}  // namespace cgra
