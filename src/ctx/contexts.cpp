#include "ctx/contexts.hpp"

#include <algorithm>
#include <type_traits>

#include "sched/validate.hpp"

namespace cgra {

namespace {

/// Field widths for one PE's context words, and the source list its
/// source selector indexes.
struct PEFields {
  unsigned opcode = 5;
  unsigned duration = 4;
  unsigned ownReg = 0;    ///< this PE's RF address
  unsigned srcSel = 0;    ///< index into `sources`
  unsigned routeReg = 0;  ///< RF address within any source PE
  unsigned predSlot = 0;
  const std::vector<PEId>* sources = nullptr;
};

PEFields fieldsFor(const Composition& comp, PEId pe) {
  PEFields f;
  f.ownReg = bitsFor(comp.pe(pe).regfileSize());
  f.sources = &comp.interconnect().sources(pe);
  f.srcSel = bitsFor(std::max<std::size_t>(1, f.sources->size()));
  unsigned maxSrcRf = 1;
  for (PEId q : *f.sources)
    maxSrcRf = std::max(maxSrcRf, comp.pe(q).regfileSize());
  f.routeReg = bitsFor(maxSrcRf);
  f.predSlot = bitsFor(comp.cboxSlots());
  return f;
}

// The word functions below (peWord, cboxWord, ccuWord) are the only
// statement of each context word's layout. Each takes its entry as
// `Entry*`: the Encoder passes a const entry, or null for an idle context,
// and the Decoder passes a default entry that it fills in. Each returns
// whether the context holds an entry. Coder::field returns the field's
// raw bits; `limit` and `what` name the range the Decoder accepts.

/// Packs a context word.
class Encoder {
public:
  bool present(const void* entry) { return field(entry != nullptr, 1); }
  template <class T>
  std::uint64_t field(const T& v, unsigned width, std::uint64_t = 0,
                      const char* = nullptr) {
    std::uint64_t raw = static_cast<std::uint64_t>(v);
    if constexpr (std::is_signed_v<T>)
      raw = static_cast<std::make_unsigned_t<T>>(v);  // two's complement
    bp.write(raw, width);
    return raw;
  }
  template <class T>
  bool optional(const std::optional<T>& v) {
    return field(v.has_value(), 1);
  }
  template <class T>
  void count(const std::vector<T>& v, unsigned width, std::size_t,
             const char*) {
    field(v.size(), width);
  }
  void select(PEId pe, const std::vector<PEId>& list, unsigned width) {
    const auto it = std::find(list.begin(), list.end(), pe);
    CGRA_ASSERT_MSG(it != list.end(),
                    "route from PE " << pe << " over no link");
    field(it - list.begin(), width);
  }

  BitPacker bp;
};

/// Unpacks a context word; throws cgra::Error when the word ends inside a
/// field, a field holds no legal value, or (finish) a padding bit is set.
class Decoder {
public:
  explicit Decoder(const BitVector& word) : br(word) {}

  bool present(const void*) {
    bool present = false;
    return field(present, 1);
  }
  template <class T>
  std::uint64_t field(T& v, unsigned width, std::uint64_t limit = 0,
                      const char* what = nullptr) {
    if (br.remaining() < width)
      throw Error("decode: context word ends inside a field");
    const std::uint64_t raw = br.read(width);
    if (what != nullptr && raw >= limit)
      throw Error(std::string("decode: ") + what + " " + std::to_string(raw) +
                  " out of range");
    v = static_cast<T>(raw);
    return raw;
  }
  template <class T>
  bool optional(std::optional<T>& v) {
    bool present = false;
    if (field(present, 1)) v.emplace();
    return present;
  }
  template <class T>
  void count(std::vector<T>& v, unsigned width, std::size_t max,
             const char* what) {
    std::size_t n = 0;
    field(n, width, max + 1, what);
    v.resize(n);
  }
  void select(PEId& pe, const std::vector<PEId>& list, unsigned width) {
    std::size_t i = 0;
    field(i, width, list.size(), "source selector");
    pe = list[i];
  }
  /// Rejects a set bit after the last field: packMemory pads with zeros.
  void finish() {
    while (br.remaining() > 0)
      if (br.read(static_cast<unsigned>(
              std::min<std::size_t>(64, br.remaining()))) != 0)
        throw Error("decode: context word sets a padding bit");
  }

private:
  BitReader br;
};

/// PE context word: opcode, duration, each operand's kind and address,
/// destination register, predicate.
template <class Coder, class Entry>
bool peWord(Coder& c, Entry* op, const PEFields& f) {
  if (!c.present(op)) return false;
  c.field(op->op, f.opcode, kNumOps, "opcode");
  c.field(op->duration, f.duration);
  for (unsigned i = 0; i < operandCount(op->op); ++i) {
    auto& src = op->src[i];
    c.field(src.kind, 2, 4, "operand kind");
    switch (src.kind) {
      case OperandSource::Kind::None: break;
      case OperandSource::Kind::Own:
        c.field(src.vreg, f.ownReg);
        break;
      case OperandSource::Kind::Route:
        c.select(src.srcPE, *f.sources, f.srcSel);
        c.field(src.vreg, f.routeReg);
        break;
      case OperandSource::Kind::Imm:
        c.field(src.imm, 32);
        break;
    }
  }
  if (c.field(op->writesDest, 1)) c.field(op->destVreg, f.ownReg);
  if (c.optional(op->pred)) {
    c.field(op->pred->slot, f.predSlot);
    c.field(op->pred->polarity, 1);
  }
  return true;
}

/// C-Box context word: up to two inputs (status wire or stored slot, with
/// polarity), the combining logic and the slot written.
template <class Coder, class Entry>
bool cboxWord(Coder& c, Entry* op, unsigned slotBits) {
  if (!c.present(op)) return false;
  c.count(op->inputs, 2, 2, "C-Box input count");
  for (auto& in : op->inputs) {
    c.field(in.kind, 1);  // Status 0, Stored 1
    if (in.kind == CBoxOp::Input::Kind::Stored) c.field(in.slot, slotBits);
    c.field(in.polarity, 1);
  }
  c.field(op->logic, 2, 3, "C-Box logic");
  c.field(op->writeSlot, slotBits);
  return true;
}

/// CCU context word: branch target and, when conditional, its predicate.
template <class Coder, class Entry>
bool ccuWord(Coder& c, Entry* b, unsigned targetBits, unsigned slotBits) {
  if (!c.present(b)) return false;
  c.field(b->target, targetBits);
  if (c.field(b->conditional, 1)) {
    c.field(b->pred.slot, slotBits);
    c.field(b->pred.polarity, 1);
  }
  return true;
}

/// Encodes one memory of `length` contexts, `word(encoder, t)` packing
/// context t, and pads every word to the widest.
template <class Word>
ContextMemory packMemory(unsigned length, const Word& word) {
  ContextMemory mem;
  mem.width = 1;
  mem.words.reserve(length);
  for (unsigned t = 0; t < length; ++t) {
    Encoder enc;
    word(enc, t);
    mem.words.push_back(enc.bp.take());
    mem.width =
        std::max(mem.width, static_cast<unsigned>(mem.words.back().size()));
  }
  for (BitVector& w : mem.words) w.resize(mem.width);
  return mem;
}

/// Encodes a schedule that passed layers 1-2 of verifySchedule.
ContextImages encodeVerified(const Schedule& sched, const Composition& comp) {
  ContextImages img;
  img.length = sched.length;
  img.liveIns = sched.liveIns;
  img.liveOuts = sched.liveOuts;
  img.physRegsUsed = sched.vregsPerPE;
  img.cboxSlotsUsed = sched.cboxSlotsUsed;

  const unsigned slotBits = bitsFor(comp.cboxSlots());
  const unsigned targetBits = bitsFor(std::max(1u, sched.length));

  // What each context holds, PE-major for the ops.
  std::vector<const ScheduledOp*> opAt(comp.numPEs() * sched.length, nullptr);
  for (const ScheduledOp& op : sched.ops)
    opAt[std::size_t{op.pe} * sched.length + op.start] = &op;
  std::vector<const CBoxOp*> cboxAt(sched.length, nullptr);
  for (const CBoxOp& op : sched.cboxOps) cboxAt[op.time] = &op;
  std::vector<const BranchOp*> branchAt(sched.length, nullptr);
  for (const BranchOp& b : sched.branches) branchAt[b.time] = &b;

  img.pes.reserve(comp.numPEs());
  for (PEId p = 0; p < comp.numPEs(); ++p) {
    const PEFields f = fieldsFor(comp, p);
    const ScheduledOp* const* ops = opAt.data() + std::size_t{p} * sched.length;
    img.pes.push_back(packMemory(
        sched.length, [&](Encoder& e, unsigned t) { peWord(e, ops[t], f); }));
  }
  img.cbox = packMemory(sched.length, [&](Encoder& e, unsigned t) {
    cboxWord(e, cboxAt[t], slotBits);
  });
  img.ccu = packMemory(sched.length, [&](Encoder& e, unsigned t) {
    ccuWord(e, branchAt[t], targetBits, slotBits);
  });
  return img;
}

/// Rejects images whose memories do not fit `comp` and `img.length`.
void checkShape(const ContextImages& img, const Composition& comp) {
  if (img.pes.size() != comp.numPEs())
    throw Error("decode: " + std::to_string(img.pes.size()) +
                " PE memories for " + std::to_string(comp.numPEs()) + " PEs");
  const auto fits = [&img](const ContextMemory& mem) {
    return mem.words.size() == img.length &&
           std::all_of(mem.words.begin(), mem.words.end(),
                       [&mem](const BitVector& w) {
                         return w.size() == mem.width;
                       });
  };
  if (!std::all_of(img.pes.begin(), img.pes.end(), fits) || !fits(img.cbox) ||
      !fits(img.ccu))
    throw Error("decode: a context memory does not hold " +
                std::to_string(img.length) + " words of its width");
}

}  // namespace

std::size_t ContextImages::totalBits() const {
  std::size_t bits = cbox.bits() + ccu.bits();
  for (const ContextMemory& mem : pes) bits += mem.bits();
  return bits;
}

ContextImages generateContexts(const Schedule& virtualSched,
                               const Composition& comp) {
  requireValidSchedule(virtualSched, "context generation", &comp);
  const RegAllocation alloc = allocateRegisters(virtualSched, comp);
  return encodeVerified(applyAllocation(virtualSched, alloc), comp);
}

ContextImages encodePhysical(const Schedule& sched, const Composition& comp) {
  requireValidSchedule(sched, "encode", &comp);
  return encodeVerified(sched, comp);
}

Schedule decodeContexts(const ContextImages& img, const Composition& comp) {
  checkShape(img, comp);
  Schedule out;
  out.length = img.length;
  out.liveIns = img.liveIns;
  out.liveOuts = img.liveOuts;
  out.vregsPerPE = img.physRegsUsed;
  out.cboxSlotsUsed = img.cboxSlotsUsed;

  const unsigned slotBits = bitsFor(comp.cboxSlots());
  const unsigned targetBits = bitsFor(std::max(1u, img.length));

  for (PEId p = 0; p < comp.numPEs(); ++p) {
    const PEFields f = fieldsFor(comp, p);
    for (unsigned t = 0; t < img.length; ++t) {
      Decoder d(img.pes[p].words[t]);
      ScheduledOp op;
      const bool present = peWord(d, &op, f);
      d.finish();
      if (!present) continue;
      op.pe = p;
      op.start = t;
      op.emitsStatus = producesStatus(op.op);
      out.ops.push_back(std::move(op));
    }
  }
  for (unsigned t = 0; t < img.length; ++t) {
    Decoder d(img.cbox.words[t]);
    CBoxOp op;
    op.time = t;
    const bool present = cboxWord(d, &op, slotBits);
    d.finish();
    if (present) out.cboxOps.push_back(std::move(op));
  }
  for (unsigned t = 0; t < img.length; ++t) {
    Decoder d(img.ccu.words[t]);
    BranchOp b;
    b.time = t;
    const bool present = ccuWord(d, &b, targetBits, slotBits);
    d.finish();
    if (present) out.branches.push_back(b);
  }
  return out;
}

}  // namespace cgra
