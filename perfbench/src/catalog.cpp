#include "catalog.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "apps/kernels.hpp"
#include "arch/factory.hpp"
#include "kir/interp.hpp"
#include "kir/lower_cdfg.hpp"
#include "kir/parser.hpp"
#include "kir/passes/pipeline.hpp"
#include "kir/random_kernel.hpp"
#include "sched/scheduler.hpp"
#include "support/rng.hpp"

namespace perfbench {

using namespace cgra;

namespace {

struct Inputs {
  std::map<std::string, std::vector<std::int32_t>> arrays;
  std::map<std::string, std::int32_t> scalars;
};

std::vector<std::int32_t> draw(Rng& rng, std::size_t n, std::int64_t lo,
                               std::int64_t hi) {
  std::vector<std::int32_t> v(n);
  for (std::int32_t& x : v) x = static_cast<std::int32_t>(rng.range(lo, hi));
  return v;
}

/// Seeded inputs per suite kernel. Sizes and the data-dependent trip counts
/// are fixed (popcount sees 16-bit values, the needle sits at one place, the
/// VM halts on its last slot), so every seed runs the same amount of work;
/// only the values change.
Inputs suiteInputs(const std::string& name, Rng& rng) {
  Inputs in;
  if (name == "crc32") {
    in.arrays["data"] = draw(rng, 8, 0, 255);
    in.arrays["out"] = {0};
    in.scalars["n"] = 8;
  } else if (name == "fir") {
    in.arrays["x"] = draw(rng, 12, -50, 50);
    in.arrays["coeff"] = draw(rng, 3, -4, 4);
    in.arrays["out"] = std::vector<std::int32_t>(10, 0);
    in.scalars["n"] = 10;
    in.scalars["taps"] = 3;
  } else if (name == "iir") {
    in.arrays["x"] = draw(rng, 8, -400, 400);
    in.arrays["y"] = std::vector<std::int32_t>(8, 0);
    in.scalars["n"] = 8;
    in.scalars["a"] = static_cast<std::int32_t>(rng.range(100, 250));
    in.scalars["b"] = static_cast<std::int32_t>(rng.range(50, 200));
    in.scalars["limit"] = static_cast<std::int32_t>(rng.range(100, 300));
  } else if (name == "insertion_sort") {
    in.arrays["a"] = draw(rng, 10, -50, 50);
    in.scalars["n"] = 10;
  } else if (name == "matmul") {
    in.arrays["a"] = draw(rng, 9, -9, 9);
    in.arrays["b"] = draw(rng, 9, -9, 9);
    in.arrays["c"] = std::vector<std::int32_t>(9, 0);
    in.scalars["n"] = 3;
    in.scalars["m"] = 3;
    in.scalars["p"] = 3;
  } else if (name == "popcount_sum") {
    in.arrays["data"] = draw(rng, 8, 32768, 65535);
    in.scalars["n"] = 8;
  } else if (name == "saturating_diff") {
    in.arrays["a"] = draw(rng, 8, -100, 100);
    in.arrays["b"] = draw(rng, 8, -100, 100);
    in.arrays["out"] = std::vector<std::int32_t>(8, 0);
    in.scalars["n"] = 8;
    in.scalars["limit"] = static_cast<std::int32_t>(rng.range(10, 50));
  } else if (name == "string_search") {
    // Haystack letters a..c; the needle (d, e) occurs once, at index 8.
    std::vector<std::int32_t> hay = draw(rng, 12, 97, 99);
    hay[8] = 100;
    hay[9] = 101;
    in.arrays["haystack"] = hay;
    in.arrays["needle"] = {100, 101};
    in.scalars["n"] = 12;
    in.scalars["m"] = 2;
  } else if (name == "vm_accumulate") {
    std::vector<std::int32_t> ops;
    for (int pc = 0; pc < 8; ++pc) {
      // Arithmetic and nop (0..4) slots; the last slot halts (5).
      const std::int64_t op = pc == 7 ? 5 : rng.range(0, 4);
      ops.push_back(static_cast<std::int32_t>(op));
      ops.push_back(static_cast<std::int32_t>(rng.range(0, 9)));
    }
    in.arrays["ops"] = ops;
    in.arrays["out"] = std::vector<std::int32_t>(9, 0);
    in.scalars["n"] = 8;
  } else {
    throw std::runtime_error("no input recipe for suite kernel " + name);
  }
  return in;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Kernel fromWorkload(apps::Workload w) {
  Kernel k;
  k.name = w.name;
  k.fn = std::move(w.fn);
  k.initialLocals = std::move(w.initialLocals);
  k.heap = std::move(w.heap);
  return k;
}

}  // namespace

std::vector<Kernel> suiteKernels(std::uint64_t seed) {
  static const char* kSuite[] = {
      "crc32",        "fir",          "iir",
      "insertion_sort", "matmul",     "popcount_sum",
      "saturating_diff", "string_search", "vm_accumulate"};
  std::vector<Kernel> out;
  std::uint64_t stream = 0;
  for (const char* name : kSuite) {
    Rng rng(deriveSeed(seed, 0x5017E + stream++));
    Kernel k;
    k.name = name;
    k.source = readFile(std::string("examples/kernels/") + name + ".kir");
    k.fn = kir::parseKernel(k.source);
    const Inputs in = suiteInputs(name, rng);
    k.initialLocals.assign(k.fn.numLocals(), 0);
    for (kir::LocalId l = 0; l < k.fn.numLocals(); ++l) {
      if (!k.fn.local(l).isParameter) continue;
      const std::string& param = k.fn.local(l).name;
      if (auto it = in.arrays.find(param); it != in.arrays.end())
        k.initialLocals[l] = k.heap.alloc(it->second);
      else if (auto s = in.scalars.find(param); s != in.scalars.end())
        k.initialLocals[l] = s->second;
      else
        throw std::runtime_error("suite kernel " + k.name +
                                 " has an unbound parameter " + param);
    }
    out.push_back(std::move(k));
  }
  return out;
}

std::vector<Kernel> appKernels(std::uint64_t seed) {
  std::vector<Kernel> out;
  for (apps::Workload& w : apps::allWorkloads(seed))
    out.push_back(fromWorkload(std::move(w)));
  Kernel adpcm = fromWorkload(apps::makeAdpcm(416, deriveSeed(seed, 416)));
  adpcm.name = "adpcm416";
  out.push_back(std::move(adpcm));
  return out;
}

std::vector<Kernel> randomKernels(std::uint64_t seed, unsigned count) {
  // Generated kernels range from 7 to over 900 CDFG nodes and from 4 to
  // over 500 executed statements, so an arbitrary draw alone would decide
  // a workload's slowest jobs. Every seed draws the same number of
  // candidates and keeps the `count` nearest a fixed size (about a bundled
  // kernel's), which keeps both the work and the set-up cost alike.
  // Size is the CDFG and the scheduler's placement attempts on mesh9, both
  // unrolled by 2 (the form whose scheduling costs most), and the executed
  // statements.
  constexpr unsigned kCandidates = 64;
  constexpr double kTargetNodes = 90.0, kTargetAttempts = 800.0,
                   kTargetStatements = 70.0;
  const Composition probe = makeMesh(9);
  kir::RandomKernelOptions opts;
  opts.irregularConstructs = true;
  std::vector<std::pair<double, kir::RandomKernel>> pool;
  for (unsigned draw = 0; draw < std::max(kCandidates, count); ++draw) {
    kir::RandomKernel rk =
        kir::generateRandomKernel(deriveSeed(seed, 0xAB0 + draw), opts);
    const kir::Function prepared = prepare(rk.fn, 2);
    const Cdfg graph = kir::lowerToCdfg(prepared).graph;
    const ScheduleReport sched =
        Scheduler(probe).schedule(ScheduleRequest(graph));
    HostMemory heap = rk.heap;
    const auto statements = static_cast<double>(
        kir::Interpreter().run(prepared, rk.initialLocals, heap).statements);
    auto off = [](double value, double target) {
      return std::abs(std::log(std::max(value, 1.0) / target));
    };
    const double distance =
        sched.ok ? off(static_cast<double>(graph.numNodes()), kTargetNodes) +
                       off(static_cast<double>(sched.metrics.placementAttempts),
                           kTargetAttempts) +
                       off(statements, kTargetStatements)
                 : 1e9;
    pool.emplace_back(distance, std::move(rk));
  }
  std::stable_sort(pool.begin(), pool.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<Kernel> out;
  for (unsigned i = 0; i < count; ++i) {
    Kernel k;
    k.name = "random" + std::to_string(i);
    k.generated = true;
    k.fn = std::move(pool[i].second.fn);
    k.initialLocals = std::move(pool[i].second.initialLocals);
    k.heap = std::move(pool[i].second.heap);
    out.push_back(std::move(k));
  }
  return out;
}

std::vector<std::size_t> permutation(std::size_t n, Rng& rng) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  for (std::size_t i = n; i > 1; --i)
    std::swap(p[i - 1], p[static_cast<std::size_t>(
                            rng.range(0, static_cast<std::int64_t>(i) - 1))]);
  return p;
}

const std::vector<std::string>& compositionNames() {
  static const std::vector<std::string> kNames = {
      "mesh4", "mesh6", "mesh8", "mesh9", "mesh12", "mesh16", "A",    "B",
      "C",     "D",     "E",     "F",     "torus9", "ring8",  "star7"};
  return kNames;
}

Composition buildComposition(const std::string& name) {
  if (name.rfind("mesh", 0) == 0)
    return makeMesh(static_cast<unsigned>(std::stoul(name.substr(4))));
  if (name.size() == 1) return makeIrregular(name[0]);
  if (name == "torus9")
    return makeTopology(name, "torus", 3, 3, {}, {0, 4, 8});
  if (name == "ring8") return makeTopology(name, "ring", 1, 8, {}, {0, 4});
  if (name == "star7") return makeTopology(name, "star", 1, 7, {}, {0});
  throw std::runtime_error("unknown composition " + name);
}

kir::Function prepare(const kir::Function& fn, unsigned unroll) {
  kir::FrontendOptions fo;
  fo.unrollFactor = unroll;
  return kir::runFrontendPipeline(fn, fo).fn;
}

std::vector<int> varToLocal(const std::vector<VarId>& localToVar) {
  std::vector<int> out;
  for (std::size_t local = 0; local < localToVar.size(); ++local) {
    const VarId var = localToVar[local];
    if (var >= out.size()) out.resize(var + 1, -1);
    out[var] = static_cast<int>(local);
  }
  return out;
}

Reference makeReference(const Kernel& kernel, unsigned unroll) {
  const kir::Function prepared = prepare(kernel.fn, unroll);
  kir::LoweringResult lowered = kir::lowerToCdfg(prepared);
  Reference ref;
  ref.graph = std::move(lowered.graph);
  ref.varToLocal = varToLocal(lowered.localToVar);
  ref.heap = kernel.heap;
  ref.locals = kir::Interpreter()
                   .run(prepared, kernel.initialLocals, ref.heap)
                   .locals;
  return ref;
}

std::map<VarId, std::int32_t> liveInsFor(const Schedule& sched,
                                         const Kernel& kernel,
                                         const std::vector<int>& v2l) {
  std::map<VarId, std::int32_t> liveIns;
  for (const LiveBinding& lb : sched.liveIns) {
    const int local = lb.var < v2l.size() ? v2l[lb.var] : -1;
    liveIns[lb.var] =
        local >= 0 && static_cast<std::size_t>(local) < kernel.initialLocals.size()
            ? kernel.initialLocals[static_cast<std::size_t>(local)]
            : 0;
  }
  return liveIns;
}

bool matchesReference(const SimResult& sim, const HostMemory& heap,
                      const Reference& ref, const std::vector<int>& v2l) {
  if (!(heap == ref.heap)) return false;
  for (const auto& [var, value] : sim.liveOuts) {
    const int local = var < v2l.size() ? v2l[var] : -1;
    if (local < 0 || static_cast<std::size_t>(local) >= ref.locals.size())
      return false;
    if (value != ref.locals[static_cast<std::size_t>(local)]) return false;
  }
  return true;
}

std::uint64_t simulateChecked(const Composition& comp, const Schedule& sched,
                              const Kernel& kernel, const Reference& ref) {
  try {
    HostMemory heap = kernel.heap;
    const SimResult sim = Simulator(comp, sched).run(
        liveInsFor(sched, kernel, ref.varToLocal), heap);
    return matchesReference(sim, heap, ref, ref.varToLocal) ? sim.runCycles
                                                           : 0;
  } catch (const std::exception&) {
    return 0;
  }
}

}  // namespace perfbench
