// The benchmark's inputs: kernels with seeded data, composition recipes,
// interpreter references, and the simulate-and-compare check every
// workload uses to prove a schedule computes what the kernel computes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "arch/composition.hpp"
#include "host/memory.hpp"
#include "kir/kir.hpp"
#include "sched/schedule.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace perfbench {

/// One kernel with seeded inputs. Suite kernels keep their KIR text in
/// `source` (a compile job parses it every time); built-in and generated
/// kernels carry only their IR.
struct Kernel {
  std::string name;
  /// A generated kernel: its structure changes with the seed, so the
  /// schedule-quality geomeans leave it out.
  bool generated = false;
  std::string source;
  cgra::kir::Function fn;
  std::vector<std::int32_t> initialLocals;
  cgra::HostMemory heap;
};

/// The examples/kernels/*.kir suite (read relative to the working
/// directory, the checkout root), inputs drawn from `seed`.
std::vector<Kernel> suiteKernels(std::uint64_t seed);

/// apps::allWorkloads(seed) plus the paper's 416-sample ADPCM decoder.
std::vector<Kernel> appKernels(std::uint64_t seed);

/// `count` generated kernels with break/continue/return, && / || and switch,
/// each within a fixed size band.
std::vector<Kernel> randomKernels(std::uint64_t seed, unsigned count);

/// A seeded permutation of [0, n).
std::vector<std::size_t> permutation(std::size_t n, cgra::Rng& rng);

/// Composition names buildComposition() accepts: mesh4..mesh16, A..F and
/// the makeTopology families torus9, ring8 and star7.
const std::vector<std::string>& compositionNames();

/// Builds a fresh Composition (its ArchModel starts cold).
cgra::Composition buildComposition(const std::string& name);

/// The frontend pipeline with `unroll` (1 = no unrolling).
cgra::kir::Function prepare(const cgra::kir::Function& fn, unsigned unroll);

/// Maps each CDFG variable back to its KIR local (-1 = none).
std::vector<int> varToLocal(const std::vector<cgra::VarId>& localToVar);

/// A kernel after the frontend pipeline and lowering, with its interpreter
/// result: the expected final locals and heap of every simulated run.
struct Reference {
  cgra::Cdfg graph;             ///< the prepared kernel's CDFG
  std::vector<int> varToLocal;  ///< of that lowering
  std::vector<std::int32_t> locals;
  cgra::HostMemory heap;
};
Reference makeReference(const Kernel& kernel, unsigned unroll);

/// Live-in values of `sched` from the kernel's initial locals.
std::map<cgra::VarId, std::int32_t> liveInsFor(const cgra::Schedule& sched,
                                               const Kernel& kernel,
                                               const std::vector<int>& v2l);

/// True when a simulated run left the reference heap and live-outs.
bool matchesReference(const cgra::SimResult& sim,
                      const cgra::HostMemory& heap, const Reference& ref,
                      const std::vector<int>& v2l);

/// Simulates `sched` on the kernel's inputs and compares with `ref`;
/// returns the run cycles, or 0 on a mismatch or simulator error.
std::uint64_t simulateChecked(const cgra::Composition& comp,
                              const cgra::Schedule& sched,
                              const Kernel& kernel, const Reference& ref);

}  // namespace perfbench
