// Processing-element descriptor (paper Fig. 3 / Fig. 9).
//
// A PE descriptor names the PE type, gives its register-file size and the
// set of supported operations with per-implementation energy and duration
// (the same operation may be implemented differently in different PEs —
// e.g. a 2-cycle block multiplier vs. a 1-cycle multiplier). PEs may
// additionally carry a DMA interface into host heap memory; such PEs get a
// third RF read port for the index operand (paper §IV-A.1).
#pragma once

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
      : name_(std::move(name)), regfileSize_(regfileSize), hasDma_(hasDma) {}

  const std::string& name() const { return name_; }
  void setName(std::string n) { name_ = std::move(n); }

  unsigned regfileSize() const { return regfileSize_; }
  void setRegfileSize(unsigned n) { regfileSize_ = n; }

  bool hasDma() const { return hasDma_; }
  void setHasDma(bool v) { hasDma_ = v; }

  /// Registers an operation implementation (replacing any existing one).
  void addOp(Op op, OpImpl impl) { ops_[op] = impl; }
  void addOp(Op op) { ops_[op] = OpImpl{defaultEnergy(op), defaultDuration(op)}; }
  void removeOp(Op op) { ops_.erase(op); }

  bool supports(Op op) const;
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
  std::string name_;
  unsigned regfileSize_ = 32;
  bool hasDma_ = false;
  std::map<Op, OpImpl> ops_;
};

}  // namespace cgra
