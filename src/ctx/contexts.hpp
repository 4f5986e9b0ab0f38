// Binary context generation (paper §IV-B, §V-I, Fig. 10): after register
// allocation the schedule is encoded into per-PE context memory images plus
// C-Box and CCU context streams. Field widths are minimized per PE from the
// composition (the paper's "bit-mask"): register addresses use the PE's RF
// depth, source selectors the PE's fan-in, condition slots the C-Box size.
// Each kind of context word (PE op, C-Box op, CCU branch) is laid out by
// one coding function, which an Encoder runs to pack the word field by
// field and a Decoder runs to unpack it, so the two directions cannot
// drift apart. Every memory is padded to its widest word. The test suite
// uses the exact inverse for bit-level round-trip checks and for running
// the simulator on *decoded* images (context-accurate execution).
#pragma once

#include "ctx/regalloc.hpp"
#include "sched/schedule.hpp"
#include "support/bitvector.hpp"

namespace cgra {

/// One context memory: a word per context, each `width` bits wide.
struct ContextMemory {
  unsigned width = 0;
  std::vector<BitVector> words;  ///< [cycle]

  std::size_t bits() const { return std::size_t{width} * words.size(); }
  bool operator==(const ContextMemory&) const = default;
};

/// Encoded context memories for one schedule on one composition.
struct ContextImages {
  unsigned length = 0;  ///< contexts per memory

  std::vector<ContextMemory> pes;  ///< [pe]
  ContextMemory cbox;
  ContextMemory ccu;

  // Invocation metadata (token-transferred in the real system, Fig. 6).
  std::vector<LiveBinding> liveIns;
  std::vector<LiveBinding> liveOuts;
  std::vector<unsigned> physRegsUsed;  ///< per PE (for simulator RF sizing)
  unsigned cboxSlotsUsed = 0;

  /// Total bits over all context memories (resource discussion of §VI-B).
  std::size_t totalBits() const;
};

/// Encodes a schedule whose registers are still virtual: allocation is
/// applied internally (left edge, §V-I). Throws cgra::Error when the
/// schedule fails layers 1-2 of verifySchedule (sched/validate.hpp) on
/// `comp` or its registers do not fit the register files.
ContextImages generateContexts(const Schedule& sched, const Composition& comp);

/// Encodes a schedule whose registers are already physical (e.g. a pack of
/// several schedules sharing one context memory, ctx/multi.hpp). Throws
/// cgra::Error when it fails layers 1-2 of verifySchedule on `comp`.
ContextImages encodePhysical(const Schedule& physical, const Composition& comp);

/// Decodes context images back into an executable schedule (physical
/// registers). The result carries no loop metadata — exactly what the
/// hardware knows — but runs identically on the simulator. Throws
/// cgra::Error when the images do not match `comp` (memory count, `length`
/// words per memory, each word its memory's width), a field is out of
/// range, or a bit after a word's last field is set.
Schedule decodeContexts(const ContextImages& images, const Composition& comp);

}  // namespace cgra
