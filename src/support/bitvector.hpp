// Dynamic bit vector plus sequential bit-field packer/reader.
//
// Context memories in the generated CGRA are bit-mask packed (paper §IV-B:
// "to minimize the width of each context, a bit-mask is created for each
// context"). BitPacker appends and BitReader reads one whole fixed-width
// field at a time, with shifts on the 64-bit storage words. The context
// coder (ctx/contexts.cpp) states each context word's layout once and runs
// it over either, so an encode/decode round trip is testable bit-exactly.
#pragma once

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "support/assert.hpp"

namespace cgra {

/// Growable vector of bits with word-level storage: bit i lives in word
/// i / 64 at position i % 64, and the bits past size() are zero.
class BitVector {
public:
  BitVector() = default;
  explicit BitVector(std::size_t size, bool value = false)
      : size_(size), words_((size + 63) / 64, value ? ~0ull : 0ull) {
    trimTail();
  }

  std::size_t size() const { return size_; }

  bool get(std::size_t i) const {
    CGRA_ASSERT(i < size_);
    return (words_[i / 64] >> (i % 64)) & 1u;
  }

  void set(std::size_t i, bool v) {
    if (get(i) != v) words_[i / 64] ^= 1ull << (i % 64);
  }

  void pushBack(bool v) { append(v, 1); }

  /// Appends the low `width` bits of `value`, whose higher bits are zero.
  void append(std::uint64_t value, unsigned width) {
    if (width == 0) return;
    const unsigned off = size_ % 64;
    if (off == 0) words_.push_back(0);
    words_.back() |= value << off;
    if (off + width > 64) words_.push_back(value >> (64 - off));
    size_ += width;
  }

  /// Grows with zero bits or shrinks to `n` bits.
  void resize(std::size_t n) {
    words_.resize((n + 63) / 64, 0);
    size_ = n;
    trimTail();
  }

  /// Number of set bits.
  std::size_t popcount() const {
    std::size_t n = 0;
    for (std::uint64_t w : words_) n += static_cast<std::size_t>(__builtin_popcountll(w));
    return n;
  }

  bool operator==(const BitVector&) const = default;

private:
  friend class BitReader;

  void trimTail() {
    if (size_ % 64 != 0) words_.back() &= (1ull << (size_ % 64)) - 1;
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Appends fixed-width little-endian bit fields to a BitVector.
class BitPacker {
public:
  /// Appends the low `width` bits of `value`. `value` must fit.
  void write(std::uint64_t value, unsigned width) {
    CGRA_ASSERT_MSG(width == 64 || (width < 64 && value >> width == 0),
                    "value " << value << " does not fit in " << width << " bits");
    bits_.append(value, width);
  }

  const BitVector& bits() const { return bits_; }
  BitVector take() { return std::move(bits_); }

private:
  BitVector bits_;
};

/// Reads fixed-width bit fields sequentially from a BitVector.
class BitReader {
public:
  explicit BitReader(const BitVector& bits) : bits_(&bits) {}

  std::uint64_t read(unsigned width) {
    CGRA_ASSERT_MSG(width <= 64 && width <= remaining(),
                    "bit stream exhausted");
    if (width == 0) return 0;
    const unsigned off = pos_ % 64;
    std::uint64_t v = bits_->words_[pos_ / 64] >> off;
    if (off + width > 64) v |= bits_->words_[pos_ / 64 + 1] << (64 - off);
    pos_ += width;
    return width == 64 ? v : v & ((1ull << width) - 1);
  }

  std::size_t remaining() const { return bits_->size() - pos_; }

private:
  const BitVector* bits_;
  std::size_t pos_ = 0;
};

/// Number of bits needed to encode values in [0, n-1]; at least 1.
inline unsigned bitsFor(std::size_t n) {
  return n <= 2 ? 1 : static_cast<unsigned>(std::bit_width(n - 1));
}

}  // namespace cgra
