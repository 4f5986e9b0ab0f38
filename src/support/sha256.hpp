// Self-contained SHA-256 (FIPS 180-4) for content-addressed cache keys.
//
// The artifact store names cached schedules by a cryptographic digest of
// their inputs (composition JSON, CDFG, scheduler options, version salt), so
// the digest of a given byte stream must never depend on endianness, word
// size, library version or CPU. Two engines compress 64-byte blocks: a
// portable one over uint32 arithmetic, and on x86 CPUs with the SHA
// extensions (SHA-NI) one built on `_mm_sha256rnds2_epu32`, several times
// faster. The engine is chosen once per process from the CPU alone; both
// produce the same bytes. tests/test_support.cpp checks each engine against
// the FIPS 180-4 test vectors and against each other on random inputs split
// at random points.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#include <immintrin.h>
#define CGRA_SHA256_HAVE_SHANI 1
#endif

namespace cgra {

namespace sha256_detail {

inline constexpr std::uint32_t kRound[64] = {
    0x428a2f98u, 0x71374491u, 0xb5c0fbcfu, 0xe9b5dba5u, 0x3956c25bu,
    0x59f111f1u, 0x923f82a4u, 0xab1c5ed5u, 0xd807aa98u, 0x12835b01u,
    0x243185beu, 0x550c7dc3u, 0x72be5d74u, 0x80deb1feu, 0x9bdc06a7u,
    0xc19bf174u, 0xe49b69c1u, 0xefbe4786u, 0x0fc19dc6u, 0x240ca1ccu,
    0x2de92c6fu, 0x4a7484aau, 0x5cb0a9dcu, 0x76f988dau, 0x983e5152u,
    0xa831c66du, 0xb00327c8u, 0xbf597fc7u, 0xc6e00bf3u, 0xd5a79147u,
    0x06ca6351u, 0x14292967u, 0x27b70a85u, 0x2e1b2138u, 0x4d2c6dfcu,
    0x53380d13u, 0x650a7354u, 0x766a0abbu, 0x81c2c92eu, 0x92722c85u,
    0xa2bfe8a1u, 0xa81a664bu, 0xc24b8b70u, 0xc76c51a3u, 0xd192e819u,
    0xd6990624u, 0xf40e3585u, 0x106aa070u, 0x19a4c116u, 0x1e376c08u,
    0x2748774cu, 0x34b0bcb5u, 0x391c0cb3u, 0x4ed8aa4au, 0x5b9cca4fu,
    0x682e6ff3u, 0x748f82eeu, 0x78a5636fu, 0x84c87814u, 0x8cc70208u,
    0x90befffau, 0xa4506cebu, 0xbef9a3f7u, 0xc67178f2u};

/// Folds `blocks` consecutive 64-byte blocks into `state`.
using CompressFn = void (*)(std::uint32_t* state, const unsigned char* data,
                            std::size_t blocks);

inline std::uint32_t rotr(std::uint32_t x, unsigned n) {
  return (x >> n) | (x << (32 - n));
}

inline void compressScalar(std::uint32_t* state, const unsigned char* data,
                           std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (unsigned i = 0; i < 16; ++i)
      w[i] = (std::uint32_t(data[4 * i]) << 24) |
             (std::uint32_t(data[4 * i + 1]) << 16) |
             (std::uint32_t(data[4 * i + 2]) << 8) |
             std::uint32_t(data[4 * i + 3]);
    for (unsigned i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (unsigned i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef CGRA_SHA256_HAVE_SHANI
/// The SHA-NI engine. Each of the 16 steps runs four rounds: two
/// `sha256rnds2` on the message words plus round constants, while
/// `sha256msg1`/`sha256msg2` extend the schedule three steps ahead. The
/// state lives in two registers as ABEF and CDGH.
__attribute__((target("sha,sse4.1"))) inline void compressShaNi(
    std::uint32_t* state, const unsigned char* data, std::size_t blocks) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);              // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);      // ABEF
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);           // CDGH

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abefSave = abef;
    const __m128i cdghSave = cdgh;
    __m128i msg[4];
#pragma GCC unroll 16
    for (unsigned i = 0; i < 16; ++i) {
      __m128i& cur = msg[i % 4];
      if (i < 4)
        cur = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
            kByteSwap);
      __m128i words = _mm_add_epi32(
          cur,
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRound + 4 * i)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, words);
      if (i >= 3 && i < 15) {  // finish the schedule of step i + 1
        __m128i& next = msg[(i + 1) % 4];
        next = _mm_add_epi32(next, _mm_alignr_epi8(cur, msg[(i + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, cur);
      }
      words = _mm_shuffle_epi32(words, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, words);
      if (i >= 1 && i <= 12) {  // start the schedule of step i + 3
        __m128i& prev = msg[(i + 3) % 4];
        prev = _mm_sha256msg1_epu32(prev, cur);
      }
    }
    abef = _mm_add_epi32(abef, abefSave);
    cdgh = _mm_add_epi32(cdgh, cdghSave);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);               // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);              // DCHG
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(tmp, cdgh, 0xF0));  // DCBA
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(cdgh, tmp, 8));     // HGFE
}
#endif

/// True when this CPU runs compressShaNi. Decided on first call.
inline bool shaNiSupported() {
#ifdef CGRA_SHA256_HAVE_SHANI
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
  }();
  return supported;
#else
  return false;
#endif
}

/// The fastest engine this CPU runs.
inline CompressFn fastestCompress() {
#ifdef CGRA_SHA256_HAVE_SHANI
  if (shaNiSupported()) return compressShaNi;
#endif
  return compressScalar;
}

}  // namespace sha256_detail

/// Incremental SHA-256 hasher: feed bytes with update(), read the digest
/// with digest()/hex(). A finalized hasher keeps returning the same digest;
/// update() after finalization is a programmer error.
class Sha256 {
public:
  Sha256() : Sha256(sha256_detail::fastestCompress()) {}
  /// Hashes with the given block engine, so tests can cross-check them.
  explicit Sha256(sha256_detail::CompressFn compress) : compress_(compress) {
    reset();
  }

  void reset() {
    state_ = {0x6a09e667u, 0xbb67ae85u, 0x3c6ef372u, 0xa54ff53au,
              0x510e527fu, 0x9b05688cu, 0x1f83d9abu, 0x5be0cd19u};
    bufferLen_ = 0;
    totalBytes_ = 0;
    finalized_ = false;
  }

  Sha256& update(const void* data, std::size_t len) {
    if (len == 0) return *this;  // `data` may then be null
    const auto* bytes = static_cast<const unsigned char*>(data);
    totalBytes_ += len;
    if (bufferLen_ > 0) {
      const std::size_t take = len < 64 - bufferLen_ ? len : 64 - bufferLen_;
      std::memcpy(buffer_.data() + bufferLen_, bytes, take);
      bufferLen_ += take;
      bytes += take;
      len -= take;
      if (bufferLen_ < 64) return *this;
      compress_(state_.data(), buffer_.data(), 1);
      bufferLen_ = 0;
    }
    // Whole blocks compress straight from the input.
    if (len >= 64) {
      compress_(state_.data(), bytes, len / 64);
      bytes += len & ~std::size_t{63};
      len &= 63;
    }
    if (len > 0) std::memcpy(buffer_.data(), bytes, len);
    bufferLen_ = len;
    return *this;
  }

  Sha256& update(const std::string& s) { return update(s.data(), s.size()); }

  /// Convenience for hashing integral fields in a fixed (little-endian)
  /// byte order regardless of host endianness.
  Sha256& updateU64(std::uint64_t v) {
    if constexpr (std::endian::native != std::endian::little)
      v = byteswap64(v);
    if (bufferLen_ > 56) return update(&v, 8);
    // Room left in the block: one store, no loop.
    std::memcpy(buffer_.data() + bufferLen_, &v, 8);
    totalBytes_ += 8;
    bufferLen_ += 8;
    if (bufferLen_ == 64) {
      compress_(state_.data(), buffer_.data(), 1);
      bufferLen_ = 0;
    }
    return *this;
  }

  /// The 32-byte digest. Finalizes on first call (idempotent after).
  std::array<std::uint8_t, 32> digest() {
    if (!finalized_) finalize();
    return digest_;
  }

  /// Lowercase hex form of the digest (64 chars).
  std::string hex() {
    static const char* kHex = "0123456789abcdef";
    const auto d = digest();
    std::string out(64, '0');
    for (std::size_t i = 0; i < 32; ++i) {
      out[2 * i] = kHex[d[i] >> 4];
      out[2 * i + 1] = kHex[d[i] & 0xf];
    }
    return out;
  }

  /// One-shot helper.
  static std::string hexOf(const std::string& data) {
    Sha256 h;
    h.update(data);
    return h.hex();
  }

private:
  static std::uint64_t byteswap64(std::uint64_t v) {
    std::uint64_t out = 0;
    for (unsigned i = 0; i < 8; ++i) out = (out << 8) | ((v >> (8 * i)) & 0xff);
    return out;
  }

  void finalize() {
    const std::uint64_t bitLen = totalBytes_ * 8;
    // Append 0x80, pad with zeros to 56 mod 64, then the 64-bit length.
    unsigned char pad[72] = {0x80};
    const std::size_t padLen =
        (bufferLen_ < 56) ? (56 - bufferLen_) : (120 - bufferLen_);
    update(pad, padLen);
    unsigned char lenBytes[8];
    for (unsigned i = 0; i < 8; ++i)
      lenBytes[i] = static_cast<unsigned char>(bitLen >> (8 * (7 - i)));
    // update() counts these padding bytes into totalBytes_, but bitLen was
    // latched before padding, so the encoded length stays correct.
    update(lenBytes, 8);
    for (unsigned i = 0; i < 8; ++i) {
      digest_[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
      digest_[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
      digest_[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
      digest_[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
    }
    finalized_ = true;
  }

  sha256_detail::CompressFn compress_;
  std::array<std::uint32_t, 8> state_{};
  std::array<unsigned char, 64> buffer_{};
  std::size_t bufferLen_ = 0;
  std::uint64_t totalBytes_ = 0;
  std::array<std::uint8_t, 32> digest_{};
  bool finalized_ = false;
};

}  // namespace cgra
