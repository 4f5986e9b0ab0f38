#include "ctx/contexts.hpp"

#include <algorithm>

#include "sched/validate.hpp"

namespace cgra {

namespace {

/// Field widths for one PE's context encoding.
struct PEFieldWidths {
  unsigned opcode = 5;
  unsigned duration = 4;
  unsigned ownReg = 0;    ///< this PE's RF address
  unsigned srcSel = 0;    ///< index into the PE's source list
  unsigned routeReg = 0;  ///< RF address within any source PE
  unsigned predSlot = 0;
};

PEFieldWidths widthsFor(const Composition& comp, PEId pe) {
  PEFieldWidths w;
  w.ownReg = bitsFor(comp.pe(pe).regfileSize());
  const auto& sources = comp.interconnect().sources(pe);
  w.srcSel = bitsFor(std::max<std::size_t>(1, sources.size()));
  unsigned maxSrcRf = 1;
  for (PEId q : sources)
    maxSrcRf = std::max(maxSrcRf, comp.pe(q).regfileSize());
  w.routeReg = bitsFor(maxSrcRf);
  w.predSlot = bitsFor(comp.cboxSlots());
  return w;
}

unsigned sourceIndex(const Composition& comp, PEId pe, PEId src) {
  const auto& sources = comp.interconnect().sources(pe);
  for (unsigned i = 0; i < sources.size(); ++i)
    if (sources[i] == src) return i;
  throw Error("encode: PE " + std::to_string(src) + " is not a source of PE " +
              std::to_string(pe));
}

void encodeOp(BitPacker& bp, const ScheduledOp& op, const Composition& comp,
              const PEFieldWidths& w) {
  bp.writeBool(true);  // op present
  bp.write(static_cast<unsigned>(op.op), w.opcode);
  bp.write(op.duration, w.duration);
  const unsigned nOperands = operandCount(op.op);
  for (unsigned i = 0; i < nOperands; ++i) {
    const OperandSource& src = op.src[i];
    bp.write(static_cast<unsigned>(src.kind), 2);
    switch (src.kind) {
      case OperandSource::Kind::None: break;
      case OperandSource::Kind::Own:
        bp.write(src.vreg, w.ownReg);
        break;
      case OperandSource::Kind::Route:
        bp.write(sourceIndex(comp, op.pe, src.srcPE), w.srcSel);
        bp.write(src.vreg, w.routeReg);
        break;
      case OperandSource::Kind::Imm:
        bp.write(static_cast<std::uint32_t>(src.imm), 32);
        break;
    }
  }
  bp.writeBool(op.writesDest);
  if (op.writesDest) bp.write(op.destVreg, w.ownReg);
  bp.writeBool(op.pred.has_value());
  if (op.pred) {
    bp.write(op.pred->slot, w.predSlot);
    bp.writeBool(op.pred->polarity);
  }
}

ScheduledOp decodeOp(BitReader& br, PEId pe, unsigned time,
                     const Composition& comp, const PEFieldWidths& w) {
  ScheduledOp op;
  op.pe = pe;
  op.start = time;
  op.op = static_cast<Op>(br.read(w.opcode));
  op.duration = static_cast<unsigned>(br.read(w.duration));
  const unsigned nOperands = operandCount(op.op);
  for (unsigned i = 0; i < nOperands; ++i) {
    OperandSource& src = op.src[i];
    src.kind = static_cast<OperandSource::Kind>(br.read(2));
    switch (src.kind) {
      case OperandSource::Kind::None: break;
      case OperandSource::Kind::Own:
        src.vreg = static_cast<unsigned>(br.read(w.ownReg));
        break;
      case OperandSource::Kind::Route: {
        const unsigned idx = static_cast<unsigned>(br.read(w.srcSel));
        const auto& sources = comp.interconnect().sources(pe);
        if (idx >= sources.size())
          throw Error("decode: source selector out of range on PE " +
                      std::to_string(pe));
        src.srcPE = sources[idx];
        src.vreg = static_cast<unsigned>(br.read(w.routeReg));
        break;
      }
      case OperandSource::Kind::Imm:
        src.imm = static_cast<std::int32_t>(
            static_cast<std::uint32_t>(br.read(32)));
        break;
    }
  }
  op.writesDest = br.readBool();
  if (op.writesDest) op.destVreg = static_cast<unsigned>(br.read(w.ownReg));
  if (br.readBool()) {
    PredRef pred;
    pred.slot = static_cast<unsigned>(br.read(w.predSlot));
    pred.polarity = br.readBool();
    op.pred = pred;
  }
  op.emitsStatus = producesStatus(op.op);
  return op;
}

BitVector padTo(const BitVector& bits, unsigned width) {
  BitVector out = bits;
  while (out.size() < width) out.pushBack(false);
  return out;
}

/// Encodes a schedule that passed layers 1-2 of verifySchedule.
ContextImages encodeVerified(const Schedule& sched, const Composition& comp) {
  ContextImages img;
  img.length = sched.length;
  img.liveIns = sched.liveIns;
  img.liveOuts = sched.liveOuts;
  img.physRegsUsed = sched.vregsPerPE;
  img.cboxSlotsUsed = sched.cboxSlotsUsed;

  const unsigned cboxSlotBits = bitsFor(comp.cboxSlots());
  const unsigned targetBits = bitsFor(std::max(1u, sched.length));

  // What each context holds, PE-major for the ops.
  std::vector<const ScheduledOp*> opAt(comp.numPEs() * sched.length, nullptr);
  for (const ScheduledOp& op : sched.ops)
    opAt[std::size_t{op.pe} * sched.length + op.start] = &op;
  std::vector<const CBoxOp*> cboxAt(sched.length, nullptr);
  for (const CBoxOp& op : sched.cboxOps) cboxAt[op.time] = &op;
  std::vector<const BranchOp*> branchAt(sched.length, nullptr);
  for (const BranchOp& b : sched.branches) branchAt[b.time] = &b;

  // Per-PE contexts.
  img.peContexts.resize(comp.numPEs());
  img.peWidths.resize(comp.numPEs());
  for (PEId p = 0; p < comp.numPEs(); ++p) {
    const PEFieldWidths w = widthsFor(comp, p);
    std::vector<BitVector> raw(sched.length);
    unsigned width = 1;
    for (unsigned t = 0; t < sched.length; ++t) {
      BitPacker bp;
      if (const ScheduledOp* op = opAt[std::size_t{p} * sched.length + t])
        encodeOp(bp, *op, comp, w);
      else
        bp.writeBool(false);  // idle context
      raw[t] = bp.bits();
      width = std::max(width, static_cast<unsigned>(raw[t].size()));
    }
    img.peWidths[p] = width;
    img.peContexts[p].reserve(sched.length);
    for (const BitVector& bits : raw)
      img.peContexts[p].push_back(padTo(bits, width));
  }

  // C-Box contexts.
  {
    std::vector<BitVector> raw(sched.length);
    unsigned width = 1;
    for (unsigned t = 0; t < sched.length; ++t) {
      BitPacker bp;
      if (cboxAt[t] != nullptr) {
        const CBoxOp& op = *cboxAt[t];
        bp.writeBool(true);
        bp.write(op.inputs.size(), 2);
        for (const CBoxOp::Input& in : op.inputs) {
          bp.writeBool(in.kind == CBoxOp::Input::Kind::Stored);
          if (in.kind == CBoxOp::Input::Kind::Stored)
            bp.write(in.slot, cboxSlotBits);
          bp.writeBool(in.polarity);
        }
        bp.write(static_cast<unsigned>(op.logic), 2);
        bp.write(op.writeSlot, cboxSlotBits);
      } else {
        bp.writeBool(false);
      }
      raw[t] = bp.bits();
      width = std::max(width, static_cast<unsigned>(raw[t].size()));
    }
    img.cboxWidth = width;
    for (const BitVector& bits : raw) img.cboxContexts.push_back(padTo(bits, width));
  }

  // CCU contexts.
  {
    std::vector<BitVector> raw(sched.length);
    unsigned width = 1;
    for (unsigned t = 0; t < sched.length; ++t) {
      BitPacker bp;
      if (branchAt[t] != nullptr) {
        const BranchOp& b = *branchAt[t];
        bp.writeBool(true);
        bp.write(b.target, targetBits);
        bp.writeBool(b.conditional);
        if (b.conditional) {
          bp.write(b.pred.slot, cboxSlotBits);
          bp.writeBool(b.pred.polarity);
        }
      } else {
        bp.writeBool(false);
      }
      raw[t] = bp.bits();
      width = std::max(width, static_cast<unsigned>(raw[t].size()));
    }
    img.ccuWidth = width;
    for (const BitVector& bits : raw) img.ccuContexts.push_back(padTo(bits, width));
  }

  return img;
}

}  // namespace

std::size_t ContextImages::totalBits() const {
  std::size_t bits = 0;
  for (PEId p = 0; p < peContexts.size(); ++p)
    bits += static_cast<std::size_t>(peWidths[p]) * peContexts[p].size();
  bits += static_cast<std::size_t>(cboxWidth) * cboxContexts.size();
  bits += static_cast<std::size_t>(ccuWidth) * ccuContexts.size();
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
  Schedule out;
  out.length = img.length;
  out.liveIns = img.liveIns;
  out.liveOuts = img.liveOuts;
  out.vregsPerPE = img.physRegsUsed;
  out.cboxSlotsUsed = img.cboxSlotsUsed;

  const unsigned cboxSlotBits = bitsFor(comp.cboxSlots());
  const unsigned targetBits = bitsFor(std::max(1u, img.length));

  for (PEId p = 0; p < comp.numPEs(); ++p) {
    const PEFieldWidths w = widthsFor(comp, p);
    for (unsigned t = 0; t < img.length; ++t) {
      BitReader br(img.peContexts[p][t]);
      if (!br.readBool()) continue;
      out.ops.push_back(decodeOp(br, p, t, comp, w));
    }
  }

  for (unsigned t = 0; t < img.length; ++t) {
    BitReader br(img.cboxContexts[t]);
    if (!br.readBool()) continue;
    CBoxOp op;
    op.time = t;
    const unsigned n = static_cast<unsigned>(br.read(2));
    for (unsigned i = 0; i < n; ++i) {
      CBoxOp::Input in;
      in.kind = br.readBool() ? CBoxOp::Input::Kind::Stored
                              : CBoxOp::Input::Kind::Status;
      if (in.kind == CBoxOp::Input::Kind::Stored)
        in.slot = static_cast<unsigned>(br.read(cboxSlotBits));
      in.polarity = br.readBool();
      op.inputs.push_back(in);
    }
    op.logic = static_cast<CBoxOp::Logic>(br.read(2));
    op.writeSlot = static_cast<unsigned>(br.read(cboxSlotBits));
    out.cboxOps.push_back(op);
  }

  for (unsigned t = 0; t < img.length; ++t) {
    BitReader br(img.ccuContexts[t]);
    if (!br.readBool()) continue;
    BranchOp b;
    b.time = t;
    b.target = static_cast<unsigned>(br.read(targetBits));
    b.conditional = br.readBool();
    if (b.conditional) {
      b.pred.slot = static_cast<unsigned>(br.read(cboxSlotBits));
      b.pred.polarity = br.readBool();
    }
    out.branches.push_back(b);
  }

  return out;
}

}  // namespace cgra
