// The bundled application kernels.
//
// Every kernel is KIR text (docs/KERNEL_LANGUAGE.md), embedded in
// kernels.cpp as a raw string literal and parsed with kir::parseKernel, the
// same front end that reads .kir files. The C++ in kernels.cpp only builds
// each kernel's inputs: the heap arrays (drawn from the seed; the ADPCM
// decoders get the output of a reference encoder) and the scalar locals,
// bound by parameter name.
//
// The paper's evaluation kernel is an ADPCM decoder (§VI-A): "a large while
// loop [containing] several nested loops. Some of them are executed under
// certain conditions, dependent on the input data, while some nested loops
// contain conditional code in the loop body." Our decoder implements the
// IMA ADPCM algorithm with exactly that control-flow shape: the per-sample
// while loop, a data-dependent nested bit-scan loop guarded by a condition,
// if/else ladders for clamping and sign handling, and table lookups plus
// output writes via DMA.
//
// The remaining kernels exercise individual scheduler features and serve as
// examples, tests and secondary benchmarks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "host/memory.hpp"
#include "kir/kir.hpp"

namespace cgra::apps {

/// A ready-to-run kernel: function + initial locals + pre-filled heap.
struct Workload {
  std::string name;
  kir::Function fn;
  std::vector<std::int32_t> initialLocals;
  HostMemory heap;
};

/// IMA ADPCM decoder over `numSamples` packed 4-bit codes (paper workload;
/// the evaluation uses 416 samples).
Workload makeAdpcm(unsigned numSamples = 416, std::uint64_t seed = 1);

/// Stereo IMA ADPCM decoder: two independent channels interleaved per
/// iteration (one byte = left nibble + right nibble). Twice the
/// instruction-level parallelism of the mono decoder — the workload where
/// larger arrays pay off (extension study; see bench_stereo_scaling).
Workload makeAdpcmStereo(unsigned framesPerChannel = 208,
                         std::uint64_t seed = 1);

/// sum += a[i] * b[i] — single loop, multiplier pressure.
Workload makeDotProduct(unsigned n = 16, std::uint64_t seed = 2);

/// FIR filter y[i] = Σ h[k]·x[i+k] — two nested loops with DMA in the inner.
Workload makeFir(unsigned n = 12, unsigned taps = 4, std::uint64_t seed = 3);

/// Dense matrix multiply C = A·B — three nested loops.
Workload makeMatMul(unsigned dim = 4, std::uint64_t seed = 4);

/// Euclid's subtraction GCD — data-dependent loop with if/else body, no DMA.
Workload makeGcd(std::int32_t a = 546, std::int32_t b = 2394);

/// Bubble sort — nested loops with a conditional swap (predicated stores).
Workload makeBubbleSort(unsigned n = 8, std::uint64_t seed = 5);

/// Exponentially weighted moving average with saturation — if/else ladder
/// inside a loop, no nested loop.
Workload makeEwmaClip(unsigned n = 16, std::uint64_t seed = 6);

/// Counts values above a threshold, and for each hit runs a data-dependent
/// halving loop — a *conditionally executed* nested loop.
Workload makeConditionalHalving(unsigned n = 12, std::uint64_t seed = 7);

/// Sobel horizontal gradient magnitude over a 2D image (row-major) — doubly
/// nested loops with 6-point stencils and an absolute-value branch.
Workload makeSobel(unsigned width = 6, unsigned height = 5,
                   std::uint64_t seed = 8);

/// Bitwise CRC-32 (reflected, polynomial 0xEDB88320) over a byte buffer —
/// a nested fixed 8-iteration bit loop with a condition in the body.
Workload makeCrc32(unsigned n = 8, std::uint64_t seed = 9);

/// 8-bin histogram with read-modify-write DMA traffic on the bin array.
Workload makeHistogram(unsigned n = 16, std::uint64_t seed = 10);

/// All bundled workloads at test-friendly sizes, inputs drawn from `seed`.
std::vector<Workload> allWorkloads(std::uint64_t seed = 42);

/// The allWorkloads(seed) entry named `name`, built alone; throws
/// cgra::Error for an unknown name.
Workload workload(const std::string& name, std::uint64_t seed = 42);

/// Reference IMA ADPCM encoder used to produce meaningful decoder inputs
/// (host-side; the kernel under test is the decoder).
std::vector<std::uint8_t> adpcmEncode(const std::vector<std::int16_t>& pcm);

}  // namespace cgra::apps
