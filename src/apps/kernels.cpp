#include "apps/kernels.hpp"

#include <cmath>
#include <initializer_list>
#include <utility>

#include "kir/parser.hpp"
#include "support/rng.hpp"

namespace cgra::apps {

namespace {

/// IMA ADPCM tables (Intel/DVI reference).
const std::vector<std::int32_t> kIndexTable = {-1, -1, -1, -1, 2, 4, 6, 8,
                                               -1, -1, -1, -1, 2, 4, 6, 8};

const std::vector<std::int32_t> kStepsizeTable = {
    7,     8,     9,     10,    11,    12,    13,    14,    16,    17,
    19,    21,    23,    25,    28,    31,    34,    37,    41,    45,
    50,    55,    60,    66,    73,    80,    88,    97,    107,   118,
    130,   143,   157,   173,   190,   209,   230,   253,   279,   307,
    337,   371,   408,   449,   494,   544,   598,   658,   724,   796,
    876,   963,   1060,  1166,  1282,  1411,  1552,  1707,  1878,  2066,
    2272,  2499,  2749,  3024,  3327,  3660,  4026,  4428,  4871,  5358,
    5894,  6484,  7132,  7845,  8630,  9493,  10442, 11487, 12635, 13899,
    15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767};

/// Parses the kernel `source` into a workload named `name` whose locals all
/// start at zero and whose heap is empty.
Workload parse(std::string name, const char* source) {
  Workload w;
  w.name = std::move(name);
  w.fn = kir::parseKernel(source);
  w.initialLocals.assign(w.fn.numLocals(), 0);
  return w;
}

/// Sets the initial value of each named local, in list order (so arrays
/// allocated in the list get ascending handles); a name the kernel does not
/// declare throws cgra::Error.
void bind(Workload& w,
          std::initializer_list<std::pair<const char*, std::int32_t>> values) {
  for (const auto& [local, value] : values)
    w.initialLocals[w.fn.localByName(local)] = value;
}

/// `n` values drawn uniformly from [lo, hi].
std::vector<std::int32_t> randomArray(Rng& rng, std::size_t n, std::int64_t lo,
                                      std::int64_t hi) {
  std::vector<std::int32_t> out(n);
  for (auto& v : out) v = static_cast<std::int32_t>(rng.range(lo, hi));
  return out;
}

}  // namespace

std::vector<std::uint8_t> adpcmEncode(const std::vector<std::int16_t>& pcm) {
  std::vector<std::uint8_t> out((pcm.size() + 1) / 2, 0);
  std::int32_t valpred = 0;
  std::int32_t index = 0;
  bool high = false;
  std::size_t bytePos = 0;
  for (std::int16_t sample : pcm) {
    const std::int32_t step = kStepsizeTable[static_cast<std::size_t>(index)];
    std::int32_t diff = sample - valpred;
    std::int32_t delta = 0;
    if (diff < 0) {
      delta = 8;
      diff = -diff;
    }
    std::int32_t vpdiff = step >> 3;
    std::int32_t stepLocal = step;
    for (int bit = 4; bit >= 1; bit >>= 1) {
      if (diff >= stepLocal) {
        delta |= bit;
        diff -= stepLocal;
        vpdiff += stepLocal;
      }
      stepLocal >>= 1;
    }
    if (delta & 8)
      valpred -= vpdiff;
    else
      valpred += vpdiff;
    valpred = std::min(32767, std::max(-32768, valpred));
    index += kIndexTable[static_cast<std::size_t>(delta)];
    index = std::min(88, std::max(0, index));
    if (!high) {
      out[bytePos] = static_cast<std::uint8_t>(delta & 0x0F);
    } else {
      out[bytePos] |= static_cast<std::uint8_t>((delta & 0x0F) << 4);
      ++bytePos;
    }
    high = !high;
  }
  return out;
}

Workload makeAdpcm(unsigned numSamples, std::uint64_t seed) {
  // The inner bit-scan loop runs only when the magnitude is non-zero
  // ("nested loops executed under certain conditions") and has an if in its
  // body ("control flow in the loop body"). The gain multiply makes the
  // block-vs-single-cycle multiplier experiments of Tables III/IV
  // meaningful, as in the paper's decoder.
  Workload w = parse("adpcm", R"(
kernel adpcm_decode(inbuf, outbuf, indexTable, stepsizeTable, n, valpred,
                    index, gain) {
  var step = stepsizeTable[index];
  var bufferstep = 0;
  var inputbuffer;
  var i = 0;
  var delta;
  var sign;
  var dmag;
  var vpdiff;
  var bit;
  var sh;
  while (i < n) {
    // Unpack the next 4-bit code (alternating nibbles of each byte).
    if (bufferstep == 0) {
      inputbuffer = inbuf[i >> 1];
      delta = inputbuffer & 15;
      bufferstep = 1;
    } else {
      delta = (inputbuffer >> 4) & 15;
      bufferstep = 0;
    }
    // Step-index update with clamping.
    index = index + indexTable[delta];
    if (index < 0) { index = 0; }
    if (index > 88) { index = 88; }
    // Magnitude / sign split and difference reconstruction.
    sign = delta & 8;
    dmag = delta & 7;
    vpdiff = step >> 3;
    if (dmag != 0) {
      bit = 4;
      sh = 0;
      while (bit >= 1) {
        if ((dmag & bit) != 0) { vpdiff = vpdiff + (step >> sh); }
        bit = bit >> 1;
        sh = sh + 1;
      }
    }
    // Predicted value update with saturation.
    if (sign != 0) { valpred = valpred - vpdiff; }
    else { valpred = valpred + vpdiff; }
    if (valpred > 32767) { valpred = 32767; }
    if (valpred < -32768) { valpred = -32768; }
    // Next step size and gain-scaled output.
    step = stepsizeTable[index];
    outbuf[i] = (valpred * gain) >> 12;
    i = i + 1;
  }
})");

  // Input: an encoded swept sine so the decoder sees realistic step-index
  // trajectories (the number of inner-loop iterations is data dependent).
  Rng rng(seed);
  std::vector<std::int16_t> pcm(numSamples);
  for (unsigned k = 0; k < numSamples; ++k) {
    const double t = static_cast<double>(k) / 40.0;
    const double amp = 6000.0 + 5000.0 * std::sin(t / 7.0);
    pcm[k] = static_cast<std::int16_t>(
        amp * std::sin(t) + static_cast<double>(rng.range(-300, 300)));
  }
  const std::vector<std::uint8_t> encoded = adpcmEncode(pcm);
  bind(w, {{"inbuf", w.heap.alloc(std::vector<std::int32_t>(encoded.begin(),
                                                            encoded.end()))},
           {"outbuf", w.heap.alloc(numSamples)},
           {"indexTable", w.heap.alloc(kIndexTable)},
           {"stepsizeTable", w.heap.alloc(kStepsizeTable)},
           {"n", static_cast<std::int32_t>(numSamples)},
           {"gain", 4519}});  // ~1.10x volume in Q12
  return w;
}

Workload makeAdpcmStereo(unsigned framesPerChannel, std::uint64_t seed) {
  // Per-channel decoder state and scratch, suffixed L/R. The two chains
  // share nothing but the input byte, giving the scheduler two independent
  // dependence graphs per iteration.
  Workload w = parse("adpcm_stereo", R"(
kernel adpcm_stereo_decode(inbuf, outL, outR, indexTable, stepsizeTable, n,
                           valpredL, indexL, valpredR, indexR) {
  var i;
  var byte;
  var stepL = stepsizeTable[indexL];
  var deltaL;
  var signL;
  var dmagL;
  var vpdiffL;
  var bitL;
  var shL;
  var stepR = stepsizeTable[indexR];
  var deltaR;
  var signR;
  var dmagR;
  var vpdiffR;
  var bitR;
  var shR;
  i = 0;
  while (i < n) {
    byte = inbuf[i];
    deltaL = byte & 15;
    indexL = indexL + indexTable[deltaL];
    if (indexL < 0) { indexL = 0; }
    if (indexL > 88) { indexL = 88; }
    signL = deltaL & 8;
    dmagL = deltaL & 7;
    vpdiffL = stepL >> 3;
    if (dmagL != 0) {
      bitL = 4;
      shL = 0;
      while (bitL >= 1) {
        if ((dmagL & bitL) != 0) { vpdiffL = vpdiffL + (stepL >> shL); }
        bitL = bitL >> 1;
        shL = shL + 1;
      }
    }
    if (signL != 0) { valpredL = valpredL - vpdiffL; }
    else { valpredL = valpredL + vpdiffL; }
    if (valpredL > 32767) { valpredL = 32767; }
    if (valpredL < -32768) { valpredL = -32768; }
    stepL = stepsizeTable[indexL];
    outL[i] = valpredL;
    deltaR = (byte >> 4) & 15;
    indexR = indexR + indexTable[deltaR];
    if (indexR < 0) { indexR = 0; }
    if (indexR > 88) { indexR = 88; }
    signR = deltaR & 8;
    dmagR = deltaR & 7;
    vpdiffR = stepR >> 3;
    if (dmagR != 0) {
      bitR = 4;
      shR = 0;
      while (bitR >= 1) {
        if ((dmagR & bitR) != 0) { vpdiffR = vpdiffR + (stepR >> shR); }
        bitR = bitR >> 1;
        shR = shR + 1;
      }
    }
    if (signR != 0) { valpredR = valpredR - vpdiffR; }
    else { valpredR = valpredR + vpdiffR; }
    if (valpredR > 32767) { valpredR = 32767; }
    if (valpredR < -32768) { valpredR = -32768; }
    stepR = stepsizeTable[indexR];
    outR[i] = valpredR;
    i = i + 1;
  }
})");

  // Two independently encoded channels packed nibble-wise per frame.
  Rng rng(seed);
  auto encodeChannel = [&](double phase) {
    std::vector<std::int16_t> pcm(framesPerChannel);
    for (unsigned k = 0; k < framesPerChannel; ++k) {
      const double t = static_cast<double>(k) / 31.0 + phase;
      pcm[k] = static_cast<std::int16_t>(
          7000.0 * std::sin(t) + static_cast<double>(rng.range(-250, 250)));
    }
    // Encode each sample into one nibble per frame (one nibble stream).
    std::vector<std::uint8_t> nibbles;
    const std::vector<std::uint8_t> packed = adpcmEncode(pcm);
    for (unsigned k = 0; k < framesPerChannel; ++k) {
      const std::uint8_t byteVal = packed[k / 2];
      nibbles.push_back(k % 2 == 0 ? (byteVal & 0x0F) : (byteVal >> 4));
    }
    return nibbles;
  };
  const auto left = encodeChannel(0.0);
  const auto right = encodeChannel(1.7);
  std::vector<std::int32_t> interleaved(framesPerChannel);
  for (unsigned k = 0; k < framesPerChannel; ++k)
    interleaved[k] = static_cast<std::int32_t>(left[k] | (right[k] << 4));
  bind(w, {{"inbuf", w.heap.alloc(std::move(interleaved))},
           {"outL", w.heap.alloc(framesPerChannel)},
           {"outR", w.heap.alloc(framesPerChannel)},
           {"indexTable", w.heap.alloc(kIndexTable)},
           {"stepsizeTable", w.heap.alloc(kStepsizeTable)},
           {"n", static_cast<std::int32_t>(framesPerChannel)}});
  return w;
}

Workload makeDotProduct(unsigned n, std::uint64_t seed) {
  Workload w = parse("dotprod", R"(
kernel dot_product(a, b, n) {
  var sum = 0;
  var i = 0;
  while (i < n) {
    sum = sum + a[i] * b[i];
    i = i + 1;
  }
})");
  Rng rng(seed);
  std::vector<std::int32_t> va(n), vb(n);
  for (unsigned k = 0; k < n; ++k) {
    va[k] = static_cast<std::int32_t>(rng.range(-100, 100));
    vb[k] = static_cast<std::int32_t>(rng.range(-100, 100));
  }
  bind(w, {{"a", w.heap.alloc(std::move(va))},
           {"b", w.heap.alloc(std::move(vb))},
           {"n", static_cast<std::int32_t>(n)}});
  return w;
}

Workload makeFir(unsigned n, unsigned taps, std::uint64_t seed) {
  Workload w = parse("fir", R"(
kernel fir(x, h, y, n, taps) {
  var i = 0;
  var k;
  var acc;
  while (i < n) {
    acc = 0;
    k = 0;
    while (k < taps) {
      acc = acc + h[k] * x[i + k];
      k = k + 1;
    }
    y[i] = acc;
    i = i + 1;
  }
})");
  Rng rng(seed);
  bind(w, {{"x", w.heap.alloc(randomArray(rng, n + taps, -50, 50))},
           {"h", w.heap.alloc(randomArray(rng, taps, -8, 8))},
           {"y", w.heap.alloc(n)},
           {"n", static_cast<std::int32_t>(n)},
           {"taps", static_cast<std::int32_t>(taps)}});
  return w;
}

Workload makeMatMul(unsigned dim, std::uint64_t seed) {
  Workload w = parse("matmul", R"(
kernel matmul(A, B, C, n) {
  var i = 0;
  var j;
  var k;
  var acc;
  while (i < n) {
    j = 0;
    while (j < n) {
      acc = 0;
      k = 0;
      while (k < n) {
        acc = acc + A[i * n + k] * B[k * n + j];
        k = k + 1;
      }
      C[i * n + j] = acc;
      j = j + 1;
    }
    i = i + 1;
  }
})");
  Rng rng(seed);
  bind(w, {{"A", w.heap.alloc(randomArray(rng, dim * dim, -9, 9))},
           {"B", w.heap.alloc(randomArray(rng, dim * dim, -9, 9))},
           {"C", w.heap.alloc(dim * dim)},
           {"n", static_cast<std::int32_t>(dim)}});
  return w;
}

Workload makeGcd(std::int32_t a, std::int32_t b) {
  Workload w = parse("gcd", R"(
kernel gcd(x, y) {
  while (x != y) {
    if (x > y) { x = x - y; }
    else { y = y - x; }
  }
})");
  bind(w, {{"x", a}, {"y", b}});
  return w;
}

Workload makeBubbleSort(unsigned n, std::uint64_t seed) {
  Workload w = parse("bubble", R"(
kernel bubble_sort(a, n) {
  var i = 0;
  var j;
  var u;
  var v;
  while (i < n - 1) {
    j = 0;
    while (j < n - i - 1) {
      u = a[j];
      v = a[j + 1];
      if (u > v) {
        a[j] = v;
        a[j + 1] = u;
      }
      j = j + 1;
    }
    i = i + 1;
  }
})");
  Rng rng(seed);
  bind(w, {{"a", w.heap.alloc(randomArray(rng, n, -1000, 1000))},
           {"n", static_cast<std::int32_t>(n)}});
  return w;
}

Workload makeEwmaClip(unsigned n, std::uint64_t seed) {
  Workload w = parse("ewma", R"(
kernel ewma_clip(x, y, n) {
  var avg = 0;
  var i = 0;
  var s;
  while (i < n) {
    s = x[i];
    avg = ((avg << 1) + avg + s) >> 2;  // (3 * avg + s) / 4
    if (avg > 255) { avg = 255; }
    else if (avg < -256) { avg = -256; }
    y[i] = avg;
    i = i + 1;
  }
})");
  Rng rng(seed);
  bind(w, {{"x", w.heap.alloc(randomArray(rng, n, -600, 600))},
           {"y", w.heap.alloc(n)},
           {"n", static_cast<std::int32_t>(n)}});
  return w;
}

Workload makeConditionalHalving(unsigned n, std::uint64_t seed) {
  // For each element above the threshold, count halvings until it drops
  // below — a nested loop whose execution *and* trip count are data
  // dependent ("executed under certain conditions, dependent on the input").
  Workload w = parse("cond_halving", R"(
kernel cond_halving(x, n, thresh) {
  var count = 0;
  var i = 0;
  var v;
  var steps;
  while (i < n) {
    v = x[i];
    if (v > thresh) {
      steps = 0;
      while (v > thresh) {
        v = v >> 1;
        steps = steps + 1;
      }
      count = count + steps;
    }
    i = i + 1;
  }
})");
  Rng rng(seed);
  bind(w, {{"x", w.heap.alloc(randomArray(rng, n, 0, 5000))},
           {"n", static_cast<std::int32_t>(n)},
           {"thresh", 40}});
  return w;
}

Workload makeSobel(unsigned width, unsigned height, std::uint64_t seed) {
  // gx = (NE + 2E + SE) - (NW + 2W + SW) at (x, y), borders skipped. Each
  // tap reads img[row + dy * w + (x + dx)].
  Workload w = parse("sobel", R"(
kernel sobel_gx(img, out, w, h) {
  var x;
  var y = 1;
  var gx;
  var row;
  while (y < h - 1) {
    row = y * w;
    x = 1;
    while (x < w - 1) {
      gx = img[row + -1 * w + (x + 1)] + (img[row + 0 * w + (x + 1)] << 1)
           + img[row + 1 * w + (x + 1)]
           - (img[row + -1 * w + (x + -1)] + (img[row + 0 * w + (x + -1)] << 1)
              + img[row + 1 * w + (x + -1)]);
      if (gx < 0) { gx = -gx; }
      out[row + x] = gx;
      x = x + 1;
    }
    y = y + 1;
  }
})");
  Rng rng(seed);
  bind(w, {{"img", w.heap.alloc(randomArray(rng, width * height, 0, 255))},
           {"out", w.heap.alloc(width * height)},
           {"w", static_cast<std::int32_t>(width)},
           {"h", static_cast<std::int32_t>(height)}});
  return w;
}

Workload makeCrc32(unsigned n, std::uint64_t seed) {
  // crc = crc ^ byte; 8x { crc = (crc >>> 1) ^ (poly if lsb set) }.
  Workload w = parse("crc32", R"(
kernel crc32(buf, n) {
  var crc = -1;
  var i = 0;
  var k;
  while (i < n) {
    crc = crc ^ buf[i];
    k = 0;
    while (k < 8) {
      if ((crc & 1) != 0) { crc = (crc >>> 1) ^ 0xEDB88320; }
      else { crc = crc >>> 1; }
      k = k + 1;
    }
    i = i + 1;
  }
  crc = crc ^ -1;
})");
  Rng rng(seed);
  bind(w, {{"buf", w.heap.alloc(randomArray(rng, n, 0, 255))},
           {"n", static_cast<std::int32_t>(n)}});
  return w;
}

Workload makeHistogram(unsigned n, std::uint64_t seed) {
  // Read-modify-write on the bin array: load + store to the same index
  // must stay ordered (memory dependency stress).
  Workload w = parse("histogram", R"(
kernel histogram(data, bins, n) {
  var i = 0;
  var bin;
  while (i < n) {
    bin = (data[i] >> 5) & 7;
    bins[bin] = bins[bin] + 1;
    i = i + 1;
  }
})");
  Rng rng(seed);
  bind(w, {{"data", w.heap.alloc(randomArray(rng, n, 0, 255))},
           {"bins", w.heap.alloc(8)},
           {"n", static_cast<std::int32_t>(n)}});
  return w;
}

namespace {

/// The bundled suite at test-friendly sizes, in allWorkloads() order: each
/// entry builds one workload from the suite seed.
struct SuiteEntry {
  const char* name;
  Workload (*make)(std::uint64_t seed);
};

constexpr SuiteEntry kSuite[] = {
    {"adpcm", [](std::uint64_t s) { return makeAdpcm(24, s); }},
    {"dotprod", [](std::uint64_t s) { return makeDotProduct(12, s + 1); }},
    {"fir", [](std::uint64_t s) { return makeFir(8, 3, s + 2); }},
    {"matmul", [](std::uint64_t s) { return makeMatMul(3, s + 3); }},
    {"gcd", [](std::uint64_t) { return makeGcd(546, 2394); }},
    {"bubble", [](std::uint64_t s) { return makeBubbleSort(7, s + 4); }},
    {"ewma", [](std::uint64_t s) { return makeEwmaClip(10, s + 5); }},
    {"cond_halving",
     [](std::uint64_t s) { return makeConditionalHalving(9, s + 6); }},
    {"sobel", [](std::uint64_t s) { return makeSobel(6, 4, s + 7); }},
    {"crc32", [](std::uint64_t s) { return makeCrc32(5, s + 8); }},
    {"histogram", [](std::uint64_t s) { return makeHistogram(10, s + 9); }},
    {"adpcm_stereo",
     [](std::uint64_t s) { return makeAdpcmStereo(16, s + 10); }},
};

}  // namespace

Workload workload(const std::string& name, std::uint64_t seed) {
  for (const SuiteEntry& e : kSuite)
    if (name == e.name) return e.make(seed);
  throw Error("unknown kernel \"" + name + "\"");
}

std::vector<Workload> allWorkloads(std::uint64_t seed) {
  std::vector<Workload> out;
  for (const SuiteEntry& e : kSuite) out.push_back(e.make(seed));
  return out;
}

}  // namespace cgra::apps
