#include "arch/pe.hpp"

#include "support/assert.hpp"

namespace cgra {

void PEDescriptor::setHasDma(bool v) {
  hasDma_ = v;
  updateSupport(Op::DMA_LOAD);
  updateSupport(Op::DMA_STORE);
}

void PEDescriptor::updateSupport(Op op) {
  const unsigned bit = static_cast<unsigned>(op);
  supported_.set(bit, isMemoryOp(op) ? hasDma_
                                     : kStructuralOps.test(bit) ||
                                           ops_.contains(op));
}

const OpImpl& PEDescriptor::impl(Op op) const {
  if (auto it = ops_.find(op); it != ops_.end()) return it->second;
  if (supports(op)) {
    // Structural ops fall back to their defaults.
    static const OpImpl kMove{defaultEnergy(Op::MOVE), defaultDuration(Op::MOVE)};
    static const OpImpl kNop{defaultEnergy(Op::NOP), defaultDuration(Op::NOP)};
    static const OpImpl kConst{defaultEnergy(Op::CONST), defaultDuration(Op::CONST)};
    static const OpImpl kLoad{defaultEnergy(Op::DMA_LOAD), defaultDuration(Op::DMA_LOAD)};
    static const OpImpl kStore{defaultEnergy(Op::DMA_STORE), defaultDuration(Op::DMA_STORE)};
    switch (op) {
      case Op::MOVE: return kMove;
      case Op::NOP: return kNop;
      case Op::CONST: return kConst;
      case Op::DMA_LOAD: return kLoad;
      case Op::DMA_STORE: return kStore;
      default: break;
    }
  }
  throw Error("PE \"" + name_ + "\" does not support operation " + opName(op));
}

void PEDescriptor::writeJson(json::Writer& w) const {
  w.beginObject();
  w.key("name").value(name_);
  w.key("Regfile_size").value(regfileSize_);
  w.key("DMA").value(hasDma_);
  for (const auto& [op, impl] : ops_) {
    w.key(opName(op)).beginObject();
    w.key("energy").value(impl.energy);
    w.key("duration").value(impl.duration);
    w.endObject();
  }
  w.endObject();
}

PEDescriptor PEDescriptor::fromJson(const json::Value& v) {
  const json::Object& obj = v.asObject();
  PEDescriptor pe;
  pe.setName(obj.at("name").asString());
  const std::int64_t rf = obj.at("Regfile_size").asInt();
  if (rf <= 0 || rf > 4096)
    throw Error("PE \"" + pe.name() + "\": Regfile_size out of range");
  pe.setRegfileSize(static_cast<unsigned>(rf));
  if (const json::Value* dma = obj.find("DMA")) pe.setHasDma(dma->asBool());
  for (const auto& [key, value] : obj) {
    if (key == "name" || key == "Regfile_size" || key == "DMA") continue;
    const std::optional<Op> op = opFromName(key);
    if (!op) throw Error("PE \"" + pe.name() + "\": unknown operation \"" + key + '"');
    OpImpl impl;
    const json::Object& entry = value.asObject();
    impl.energy = entry.at("energy").asDouble();
    const std::int64_t dur = entry.at("duration").asInt();
    if (dur <= 0 || dur > 64)
      throw Error("PE \"" + pe.name() + "\": duration out of range for " + key);
    impl.duration = static_cast<unsigned>(dur);
    pe.addOp(*op, impl);
  }
  return pe;
}

PEDescriptor PEDescriptor::fullInteger(std::string name, unsigned regfileSize,
                                       bool hasDma, bool blockMultiplier) {
  PEDescriptor pe(std::move(name), regfileSize, hasDma);
  for (unsigned i = 0; i < kNumOps; ++i) {
    const Op op = static_cast<Op>(i);
    if (op == Op::NOP || op == Op::MOVE || op == Op::CONST || isMemoryOp(op))
      continue;  // structural / DMA ops handled by supports()
    OpImpl impl{defaultEnergy(op), defaultDuration(op)};
    if (op == Op::IMUL && !blockMultiplier) impl.duration = 1;
    pe.addOp(op, impl);
  }
  return pe;
}

}  // namespace cgra
