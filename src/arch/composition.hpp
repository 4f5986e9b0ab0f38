// A CGRA *composition*: the infrastructure and operation spectrum of one
// concrete CGRA instance (paper §IV-B) — the PE set with their descriptors,
// the interconnect, the context memory depth and the C-Box condition-memory
// size. Compositions round-trip through the paper's JSON description shape
// (Fig. 8) and validate the paper's structural constraints (≤4 DMA PEs,
// strongly connected interconnect, positive memory sizes).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "arch/interconnect.hpp"
#include "arch/pe.hpp"

namespace cgra {

class ArchModel;

namespace detail {
struct ArchModelSlot;
}  // namespace detail

/// One concrete CGRA instance description.
class Composition {
public:
  Composition() = default;
  Composition(std::string name, std::vector<PEDescriptor> pes, Interconnect ic,
              unsigned contextMemoryLength, unsigned cboxSlots);

  const std::string& name() const { return name_; }
  unsigned numPEs() const { return static_cast<unsigned>(pes_.size()); }
  const PEDescriptor& pe(PEId id) const;
  const std::vector<PEDescriptor>& pes() const { return pes_; }
  const Interconnect& interconnect() const { return ic_; }

  /// Depth of each context memory (max schedule length).
  unsigned contextMemoryLength() const { return contextMemoryLength_; }
  /// Number of condition slots in the C-Box (limits parallel branches).
  unsigned cboxSlots() const { return cboxSlots_; }

  /// PEs with a DMA interface.
  std::vector<PEId> dmaPEs() const;

  /// PEs supporting a given op, cheapest-energy first.
  std::vector<PEId> pesSupporting(Op op) const;

  /// Throws cgra::Error describing the first violated structural constraint.
  void validate() const;

  /// Writes composition + inline PE descriptors + interconnect as one
  /// self-contained JSON document (the paper splits these across referenced
  /// files; this inlines them, `fromJson` accepts both inline objects and
  /// file references).
  void writeJson(json::Writer& w) const;
  /// That document at 2-space indent: what a composition file holds and
  /// the bytes the composition digest hashes (ArchModel::digestOf).
  std::string canonicalJson() const;
  static Composition fromJson(const json::Value& v);

  /// Loads a Fig. 8-style description where PE entries and the interconnect
  /// may be *paths* to separate JSON files ("0": "cgras/PE_mem.json", ...),
  /// resolved relative to the composition file's directory. Repeated
  /// references to the same file share one parse. Inline objects still work.
  static Composition fromJsonFile(const std::string& path);

  /// GraphViz rendering of the PE array and links (Fig. 13/14 style).
  std::string toDot() const;

private:
  friend class ArchModel;

  std::string name_;
  std::vector<PEDescriptor> pes_;
  Interconnect ic_;
  unsigned contextMemoryLength_ = 256;
  unsigned cboxSlots_ = 32;
  /// Lazily created memo slot for the composition's ArchModel (see
  /// arch/arch_model.hpp). A composition is immutable after construction,
  /// so copies may share the slot: the cached analyses stay valid for every
  /// copy and the model is built at most once per original instance.
  mutable std::shared_ptr<detail::ArchModelSlot> archModelSlot_;
};

}  // namespace cgra
