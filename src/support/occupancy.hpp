// Capped per-cycle occupancy structures for schedule resources.
//
// The scheduler tracks one busy/free (or one-value-per-cycle) resource map
// per PE busy table, output port, C-Box write port, predication wire and
// branch unit. The seed used bare `std::vector` + resize-on-probe helpers,
// which had two failure modes: probing grows the vector without bound, and
// an unsigned downward scan that misses its 0 guard wraps to UINT_MAX and
// resizes toward 4G entries. These types make both impossible structurally:
// every structure carries a hard ceiling (the composition's context-memory
// length plus op-duration slack); probes beyond the ceiling report the
// resource as taken ("a slot that can never exist is never free"), and
// marking beyond the ceiling is a hard error.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "support/assert.hpp"

namespace cgra {

/// Bitset-backed busy map over schedule cycles with a hard capacity ceiling.
class CycleOccupancy {
public:
  CycleOccupancy() = default;
  explicit CycleOccupancy(unsigned capacity) : cap_(capacity) {}

  unsigned capacity() const { return cap_; }

  /// Busy state of one cycle; cycles at or beyond the ceiling are
  /// permanently "busy" so resource probes can never place work there.
  bool test(unsigned cycle) const {
    if (cycle >= cap_) return true;
    const std::size_t w = cycle / 64;
    if (w >= words_.size()) return false;
    return (words_[w] >> (cycle % 64)) & 1u;
  }

  /// True when any cycle of [from, from+dur) is busy or out of range.
  bool anyBusy(unsigned from, unsigned dur) const {
    if (dur == 0) return false;
    if (from >= cap_ || dur > cap_ - from) return true;
    for (unsigned c = from; c < from + dur; ++c) {
      const std::size_t w = c / 64;
      if (w >= words_.size()) return false;  // tail never marked yet
      if ((words_[w] >> (c % 64)) & 1u) return true;
    }
    return false;
  }

  void mark(unsigned from, unsigned dur = 1) {
    CGRA_ASSERT_MSG(from < cap_ && dur <= cap_ - from,
                    "occupancy mark [" << from << ", " << from + dur
                                       << ") beyond ceiling " << cap_);
    const std::size_t needWords = (static_cast<std::size_t>(from) + dur + 63) / 64;
    if (words_.size() < needWords) words_.resize(needWords, 0);
    for (unsigned c = from; c < from + dur; ++c)
      words_[c / 64] |= 1ull << (c % 64);
  }

  /// Reverts a prior mark of exactly [from, from+dur) — the undo arm of a
  /// transactional placement probe (see passes/run_state.hpp). The caller
  /// guarantees the range was marked by the probe being rolled back, which
  /// the mark() precondition made disjoint from all earlier marks.
  void clear(unsigned from, unsigned dur = 1) {
    CGRA_ASSERT_MSG(from < cap_ && dur <= cap_ - from,
                    "occupancy clear [" << from << ", " << from + dur
                                        << ") beyond ceiling " << cap_);
    for (unsigned c = from; c < from + dur; ++c) {
      const std::size_t w = c / 64;
      if (w < words_.size()) words_[w] &= ~(1ull << (c % 64));
    }
  }

  /// First free cycle at or after `from`; nullopt when every cycle up to the
  /// ceiling is taken. The scan is bounded by the ceiling — it cannot grow
  /// storage and cannot loop forever on a saturated resource.
  std::optional<unsigned> firstFreeAtOrAfter(unsigned from) const {
    for (unsigned c = from; c < cap_; ++c)
      if (!test(c)) return c;
    return std::nullopt;
  }

  /// Latest start u <= hi with [u, u+dur) entirely free, scanning downward
  /// and terminating at cycle 0 (never wrapping). nullopt when no window of
  /// `dur` cycles is free in [0, hi].
  std::optional<unsigned> lastFreeWindowAtOrBefore(unsigned hi,
                                                   unsigned dur) const {
    if (dur == 0 || cap_ == 0) return std::nullopt;
    for (unsigned u = hi + 1; u-- > 0;)
      if (!anyBusy(u, dur)) return u;
    return std::nullopt;
  }

private:
  unsigned cap_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Per-cycle single-value slots (output-port register, predication wire):
/// each cycle holds at most one T; a cycle is usable for value `v` when it
/// is empty or already carries `v`. Probes beyond the ceiling are never
/// usable; claims beyond the ceiling are hard errors. Storage growth is
/// bounded by the ceiling.
template <typename T>
class CycleSlots {
public:
  CycleSlots() = default;
  explicit CycleSlots(unsigned capacity) : cap_(capacity) {}

  unsigned capacity() const { return cap_; }

  /// Value held at `cycle`, or nullptr when the cycle is empty.
  const T* get(unsigned cycle) const {
    if (cycle >= slots_.size()) return nullptr;
    return slots_[cycle] ? &*slots_[cycle] : nullptr;
  }

  /// Usable for `v`: within the ceiling and empty or already equal to `v`.
  bool freeFor(unsigned cycle, const T& v) const {
    if (cycle >= cap_) return false;
    const T* cur = get(cycle);
    return cur == nullptr || *cur == v;
  }

  void claim(unsigned cycle, const T& v) {
    CGRA_ASSERT_MSG(cycle < cap_,
                    "slot claim at cycle " << cycle << " beyond ceiling "
                                           << cap_);
    if (slots_.size() <= cycle) slots_.resize(cycle + 1);
    slots_[cycle] = v;
  }

  /// Empties one cycle's slot — the undo arm of a transactional placement
  /// probe. Only cycles the probe itself claimed (previously empty, recorded
  /// in the probe undo log) are released, so a shared claim made by an
  /// earlier committed probe is never dropped.
  void release(unsigned cycle) {
    if (cycle < slots_.size()) slots_[cycle].reset();
  }

private:
  unsigned cap_ = 0;
  std::vector<std::optional<T>> slots_;
};

}  // namespace cgra
