// Processing-element descriptor (paper Fig. 3 / Fig. 9).
//
// A PE descriptor names the PE type, gives its register-file size and the
// set of supported operations with per-implementation energy and duration
// (the same operation may be implemented differently in different PEs —
// e.g. a 2-cycle block multiplier vs. a 1-cycle multiplier). PEs may
// additionally carry a DMA interface into host heap memory; such PEs get a
// third RF read port for the index operand (paper §IV-A.1).
#pragma once

#include <bitset>
#include <map>
#include <optional>
#include <string>

#include "arch/operation.hpp"
#include "json/json.hpp"

namespace cgra {

/// One implementation of an operation inside a PE.
struct OpImpl {
  double energy = 0.0;    ///< relative energy per execution
  unsigned duration = 1;  ///< latency in cycles (PE is busy the whole time)
};

/// Static description of one processing element.
class PEDescriptor {
public:
  PEDescriptor() = default;
  PEDescriptor(std::string name, unsigned regfileSize, bool hasDma)
      : name_(std::move(name)), regfileSize_(regfileSize) {
    setHasDma(hasDma);
  }

  const std::string& name() const { return name_; }
  void setName(std::string n) { name_ = std::move(n); }

  unsigned regfileSize() const { return regfileSize_; }
  void setRegfileSize(unsigned n) { regfileSize_ = n; }

  bool hasDma() const { return hasDma_; }
  void setHasDma(bool v);

  /// Registers an operation implementation (replacing any existing one).
  void addOp(Op op, OpImpl impl) {
    ops_[op] = impl;
    updateSupport(op);
  }
  void addOp(Op op) { addOp(op, OpImpl{defaultEnergy(op), defaultDuration(op)}); }
  void removeOp(Op op) {
    ops_.erase(op);
    updateSupport(op);
  }

  /// Whether the PE can run `op`: one bit test (the schedule verifier
  /// asks this for every op of every schedule it checks).
  bool supports(Op op) const {
    return supported_.test(static_cast<unsigned>(op));
  }
  /// Implementation parameters; throws cgra::Error if unsupported.
  const OpImpl& impl(Op op) const;
  /// Latency of the op in this PE; throws if unsupported.
  unsigned duration(Op op) const { return impl(op).duration; }

  const std::map<Op, OpImpl>& ops() const { return ops_; }

  /// Writes the paper's Fig. 9 JSON shape.
  void writeJson(json::Writer& w) const;
  /// Parses a Fig. 9-shaped descriptor; throws cgra::Error on bad fields.
  static PEDescriptor fromJson(const json::Value& v);

  /// A PE supporting the full default integer + control-flow spectrum.
  /// `blockMultiplier` selects the paper's 2-cycle block IMUL (default) or a
  /// 1-cycle implementation (Table III variant).
  static PEDescriptor fullInteger(std::string name, unsigned regfileSize,
                                  bool hasDma, bool blockMultiplier = true);

private:
  /// NOP, MOVE and CONST are structural abilities of every PE (context
  /// decode + RF write path), not ALU operators, so every PE supports them.
  static constexpr std::bitset<kNumOps> kStructuralOps{
      (1ull << static_cast<unsigned>(Op::NOP)) |
      (1ull << static_cast<unsigned>(Op::MOVE)) |
      (1ull << static_cast<unsigned>(Op::CONST))};

  /// Re-derives `op`'s bit of `supported_` from `ops_` and `hasDma_`.
  void updateSupport(Op op);

  std::string name_;
  unsigned regfileSize_ = 32;
  bool hasDma_ = false;
  std::map<Op, OpImpl> ops_;
  /// Bit `op` set iff the PE supports it: the structural ops always, a DMA
  /// op iff the PE has a DMA interface (whatever `ops_` lists), any other
  /// op iff `ops_` lists it. Kept by setHasDma, addOp and removeOp.
  std::bitset<kNumOps> supported_ = kStructuralOps;
};

}  // namespace cgra
