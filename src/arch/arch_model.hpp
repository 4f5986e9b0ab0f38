// Immutable per-composition analysis bundle, built once and shared
// read-only by every scheduler layer.
//
// Everything the toolflow derives from the architecture alone lives here:
// the Floyd–Warshall distance/next-hop tables (via the interconnect copy),
// per-opcode candidate-PE lists, operand-accessibility tables (sources and
// sinks of each PE's register-file output port), DMA and C-Box capability
// summaries, and the memoized SHA-256 digest of the composition's canonical
// JSON (the composition contribution to every job key). The scheduler's
// passes take `(const ArchModel&, RunState&)`; the sweep engine, the
// artifact layers and `cgra-tool` all resolve their model through
// `ArchModel::get`, so a sweep of N kernels over one composition builds
// these analyses exactly once — the memoization ILP-based mappers apply to
// per-architecture connectivity tables, extended to the digest that the
// seed recomputed per job batch.
//
// Thread-safety: `get` and `digestOf` memoize into one slot stored inside
// the Composition (shared by copies — a composition is immutable after
// construction) under a global mutex; the returned model is deeply
// immutable and safe to read from any number of sweep threads without
// further locking.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/composition.hpp"

namespace cgra {

/// Immutable composition-derived lookup tables and capability summaries.
/// All fields are populated by build() and never mutated after; instances
/// are shared across threads as `shared_ptr<const ArchModel>`.
class ArchModel {
public:
  /// Per PE: the PEs that can read its output port, ascending id.
  std::vector<std::vector<PEId>> sinks;
  /// Per PE: the PEs whose output port it can read (operand accessibility).
  std::vector<std::vector<PEId>> sources;
  /// Per PE: |sources| + |sinks| (§V-G "the PE with more connections").
  std::vector<unsigned> connectivity;
  /// Per operation (indexed by static_cast<unsigned>(Op)): candidate PEs,
  /// cheapest-energy first — the placement pass probes them in this order.
  std::vector<std::vector<PEId>> supportingPEs;
  /// Per PE: bit `static_cast<unsigned>(op)` set iff the PE implements the
  /// op. The placement hot loop answers "can this PE run this op" with one
  /// shift instead of a std::map lookup in the PE descriptor.
  std::vector<std::uint64_t> opSupportMask;
  /// Flattened (PE × op) latency table, `opDurations[pe * kNumOps + op]`;
  /// 0 marks an unsupported pair (real latencies are ≥ 1).
  std::vector<unsigned> opDurations;
  /// Per PE: number of PEs it can reach (kUnreachable-free distance rows).
  std::vector<unsigned> reachCount;
  /// Per PE: whether it has a DMA interface (memory-capable, §IV-B).
  std::vector<bool> peHasDma;
  /// The DMA-capable PEs, ascending id (at most 4 per the paper).
  std::vector<PEId> dmaPEs;
  /// C-Box condition-slot budget of the composition.
  unsigned cboxSlots = 0;
  /// Context-memory depth (default schedule-length budget).
  unsigned contextMemoryLength = 0;

  unsigned numPEs() const { return static_cast<unsigned>(sinks.size()); }

  /// O(1) equivalent of `comp.pe(pe).supports(op)`.
  bool peSupports(PEId pe, Op op) const {
    return (opSupportMask[pe] >> static_cast<unsigned>(op)) & 1u;
  }

  /// O(1) latency of `op` on `pe`; 0 when the PE does not implement it
  /// (callers needing the descriptor's throwing contract fall back to
  /// `comp.pe(pe).impl(op)` on 0).
  unsigned opDuration(PEId pe, Op op) const {
    return opDurations[pe * kNumOps + static_cast<unsigned>(op)];
  }

  /// The composition's interconnect with its Floyd–Warshall distance and
  /// next-hop tables. A copy, not a reference: the model (shared through
  /// the memo slot by composition copies) may outlive the instance it was
  /// built from.
  const Interconnect& interconnect() const { return ic_; }

  /// Memoized SHA-256 of the composition's canonical JSON — the
  /// composition contribution to every schedule job key.
  const std::string& digest() const { return digest_; }

  /// Returns the composition's model, building it on first use. Copies of
  /// a composition share one cached model; distinct instances (even with
  /// equal content) build their own, mirroring identity-keyed caching.
  /// The build takes its digest from `digestOf`, so the composition is
  /// serialized and hashed once per instance however it is first reached.
  static std::shared_ptr<const ArchModel> get(const Composition& comp);

  /// The composition's digest, memoized in the same per-instance slot as
  /// the model but filled without building one: keying a job the store
  /// then answers costs one serialization and hash per instance, no
  /// Floyd–Warshall. Equal to `get(comp)->digest()`.
  static std::string digestOf(const Composition& comp);

  /// Unconditional build (no memoization); exposed for tests and tools
  /// that want a private instance.
  static ArchModel build(const Composition& comp);

  /// Process-wide count of build() executions (memoized `get` hits do not
  /// count). Tests assert one build per composition per sweep with this.
  static std::uint64_t buildsPerformed();

  /// Canonical digest recipe over a serialized composition document
  /// (`comp.canonicalJson()`): "comp:", the byte count as a little-endian
  /// u64, then the bytes. `digest()` is this, memoized.
  static std::string digestCompositionJson(const std::string& compJson);

private:
  static ArchModel build(const Composition& comp, std::string digest);
  /// The composition's memo slot, created on first use. Requires the
  /// global slot mutex.
  static std::shared_ptr<detail::ArchModelSlot> slotOf(const Composition& comp);

  Interconnect ic_;
  std::string digest_;
};

namespace detail {
/// Memo slot lazily attached to a Composition by ArchModel::get and
/// ArchModel::digestOf. Both fields are written once, under the global slot
/// mutex; `digest` is empty until computed.
struct ArchModelSlot {
  std::shared_ptr<const ArchModel> model;
  std::string digest;
};
}  // namespace detail

}  // namespace cgra
