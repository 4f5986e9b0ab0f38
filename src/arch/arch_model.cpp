#include "arch/arch_model.hpp"

#include <atomic>
#include <mutex>

#include "support/sha256.hpp"

namespace cgra {

namespace {

/// Serializes slot creation and first builds across threads. Held only for
/// the duration of a lookup or build — every read of a built model is
/// lock-free through the returned shared_ptr.
std::mutex g_slotMutex;

std::atomic<std::uint64_t> g_builds{0};

std::string canonicalDigest(const Composition& comp) {
  return ArchModel::digestCompositionJson(comp.canonicalJson());
}

}  // namespace

ArchModel ArchModel::build(const Composition& comp) {
  return build(comp, canonicalDigest(comp));
}

ArchModel ArchModel::build(const Composition& comp, std::string digest) {
  g_builds.fetch_add(1, std::memory_order_relaxed);

  const unsigned n = comp.numPEs();
  const Interconnect& ic = comp.interconnect();

  ArchModel model;
  model.ic_ = ic;
  model.digest_ = std::move(digest);
  model.cboxSlots = comp.cboxSlots();
  model.contextMemoryLength = comp.contextMemoryLength();

  model.sinks.assign(n, {});
  model.sources.assign(n, {});
  model.connectivity.assign(n, 0);
  model.reachCount.assign(n, 0);
  for (PEId from = 0; from < n; ++from) {
    model.sinks[from] = ic.sinks(from);
    model.sources[from] = ic.sources(from);
    model.connectivity[from] = static_cast<unsigned>(
        model.sources[from].size() + model.sinks[from].size());
    for (PEId to = 0; to < n; ++to)
      if (ic.distance(from, to) != kUnreachable) ++model.reachCount[from];
  }

  model.supportingPEs.assign(kNumOps, {});
  for (unsigned op = 0; op < kNumOps; ++op)
    model.supportingPEs[op] = comp.pesSupporting(static_cast<Op>(op));

  // Flattened via the descriptor's supports()/impl() so the tables carry
  // their full semantics: structural ops (NOP/MOVE/CONST) every PE decodes,
  // DMA ops gated on the DMA port, default latencies for ops a descriptor
  // supports without an explicit implementation entry.
  static_assert(kNumOps <= 64, "opSupportMask packs one bit per op");
  model.opSupportMask.assign(n, 0);
  model.opDurations.assign(static_cast<std::size_t>(n) * kNumOps, 0);
  for (PEId p = 0; p < n; ++p) {
    const PEDescriptor& pe = comp.pe(p);
    for (unsigned op = 0; op < kNumOps; ++op) {
      if (!pe.supports(static_cast<Op>(op))) continue;
      model.opSupportMask[p] |= std::uint64_t{1} << op;
      model.opDurations[p * kNumOps + op] =
          pe.impl(static_cast<Op>(op)).duration;
    }
  }

  model.peHasDma.assign(n, false);
  model.dmaPEs = comp.dmaPEs();
  for (PEId pe : model.dmaPEs) model.peHasDma[pe] = true;
  return model;
}

std::shared_ptr<const ArchModel> ArchModel::get(const Composition& comp) {
  std::shared_ptr<detail::ArchModelSlot> slot;
  {
    std::lock_guard<std::mutex> lock(g_slotMutex);
    slot = slotOf(comp);
    if (slot->model) return slot->model;
  }
  std::string digest = digestOf(comp);
  std::lock_guard<std::mutex> lock(g_slotMutex);
  if (!slot->model)
    slot->model =
        std::make_shared<const ArchModel>(build(comp, std::move(digest)));
  return slot->model;
}

std::shared_ptr<detail::ArchModelSlot> ArchModel::slotOf(
    const Composition& comp) {
  if (!comp.archModelSlot_)
    comp.archModelSlot_ = std::make_shared<detail::ArchModelSlot>();
  return comp.archModelSlot_;
}

std::string ArchModel::digestOf(const Composition& comp) {
  std::shared_ptr<detail::ArchModelSlot> slot;
  {
    std::lock_guard<std::mutex> lock(g_slotMutex);
    slot = slotOf(comp);
    if (!slot->digest.empty()) return slot->digest;
  }
  // Serialize and hash outside the lock: other compositions' lookups and
  // builds proceed meanwhile. Racing first callers compute equal digests;
  // the first to publish wins.
  std::string digest = canonicalDigest(comp);
  std::lock_guard<std::mutex> lock(g_slotMutex);
  if (slot->digest.empty()) slot->digest = std::move(digest);
  return slot->digest;
}

std::uint64_t ArchModel::buildsPerformed() {
  return g_builds.load(std::memory_order_relaxed);
}

std::string ArchModel::digestCompositionJson(const std::string& compJson) {
  Sha256 h;
  h.update("comp:");
  h.updateU64(compJson.size());
  h.update(compJson);
  return h.hex();
}

}  // namespace cgra
