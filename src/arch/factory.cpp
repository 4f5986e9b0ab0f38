#include "arch/factory.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace cgra {

namespace {

/// Builds the PE vector: full-integer PEs, DMA on the listed ids, and MUL
/// removed from PEs not in `mulPEs` (empty = all PEs multiply).
std::vector<PEDescriptor> makePEs(unsigned n, const FactoryOptions& opts,
                                  const std::vector<PEId>& dmaPEs,
                                  const std::vector<PEId>& mulPEs = {}) {
  std::vector<PEDescriptor> pes;
  pes.reserve(n);
  for (PEId i = 0; i < n; ++i) {
    const bool dma = std::find(dmaPEs.begin(), dmaPEs.end(), i) != dmaPEs.end();
    PEDescriptor pe = PEDescriptor::fullInteger(
        std::string("PE") + (dma ? "_mem" : "_no_mem") + std::to_string(i),
        opts.regfileSize, dma, opts.blockMultiplier);
    if (!mulPEs.empty() &&
        std::find(mulPEs.begin(), mulPEs.end(), i) == mulPEs.end())
      pe.removeOp(Op::IMUL);
    pes.push_back(std::move(pe));
  }
  return pes;
}

Interconnect meshLinks(unsigned rows, unsigned cols) {
  Interconnect ic(rows * cols);
  auto id = [cols](unsigned r, unsigned c) { return r * cols + c; };
  for (unsigned r = 0; r < rows; ++r)
    for (unsigned c = 0; c < cols; ++c) {
      if (c + 1 < cols) ic.addBidirectional(id(r, c), id(r, c + 1));
      if (r + 1 < rows) ic.addBidirectional(id(r, c), id(r + 1, c));
    }
  ic.computeShortestPaths();
  return ic;
}

/// DMA placement mirroring the grey PEs in Fig. 13: spread over the array,
/// never more than four.
std::vector<PEId> defaultMeshDma(unsigned numPEs) {
  switch (numPEs) {
    case 4: return {0, 3};
    case 6: return {0, 5};
    case 8: return {0, 5};
    case 9: return {0, 4, 8};
    case 12: return {0, 5, 10};
    case 16: return {0, 5, 10, 15};
    default: CGRA_UNREACHABLE("unsupported mesh size");
  }
}

std::pair<unsigned, unsigned> meshShape(unsigned numPEs) {
  switch (numPEs) {
    case 4: return {2, 2};
    case 6: return {2, 3};
    case 8: return {2, 4};
    case 9: return {3, 3};
    case 12: return {3, 4};
    case 16: return {4, 4};
    default:
      throw Error("makeMesh: unsupported PE count " + std::to_string(numPEs) +
                  " (Fig. 13 sizes are 4, 6, 8, 9, 12, 16)");
  }
}

}  // namespace

Composition makeMeshGrid(unsigned rows, unsigned cols,
                         const FactoryOptions& opts, std::vector<PEId> dmaPEs) {
  const unsigned n = rows * cols;
  if (dmaPEs.empty()) dmaPEs = {0};
  return Composition("mesh" + std::to_string(rows) + "x" + std::to_string(cols),
                     makePEs(n, opts, dmaPEs), meshLinks(rows, cols),
                     opts.contextMemoryLength, opts.cboxSlots);
}

Composition makeMesh(unsigned numPEs, const FactoryOptions& opts) {
  const auto [rows, cols] = meshShape(numPEs);
  Composition c = makeMeshGrid(rows, cols, opts, defaultMeshDma(numPEs));
  return Composition("mesh" + std::to_string(numPEs),
                     std::vector<PEDescriptor>(c.pes().begin(), c.pes().end()),
                     c.interconnect(), opts.contextMemoryLength, opts.cboxSlots);
}

Composition makeIrregular(char which, const FactoryOptions& opts) {
  const unsigned n = 8;
  Interconnect ic(n);
  std::vector<PEId> dma{0, 5};
  std::vector<PEId> mulPEs;  // empty = all PEs multiply

  switch (which) {
    case 'A': {
      // 2×4 mesh with two row links removed and one diagonal added: mildly
      // irregular, mid-field performance.
      ic.addBidirectional(0, 1);
      ic.addBidirectional(2, 3);
      ic.addBidirectional(4, 5);
      ic.addBidirectional(5, 6);
      ic.addBidirectional(6, 7);
      ic.addBidirectional(0, 4);
      ic.addBidirectional(1, 5);
      ic.addBidirectional(2, 6);
      ic.addBidirectional(3, 7);
      ic.addBidirectional(1, 6);
      break;
    }
    case 'B': {
      // Minimal interconnect: a single unidirectional ring ("little
      // interconnect is available" — worst performer in Table II).
      for (PEId i = 0; i < n; ++i) ic.addLink(i, (i + 1) % n);
      break;
    }
    case 'C': {
      // Bidirectional ring plus two cross chords: nearly as fast as D.
      for (PEId i = 0; i < n; ++i) ic.addBidirectional(i, (i + 1) % n);
      ic.addBidirectional(0, 4);
      ic.addBidirectional(2, 6);
      ic.addBidirectional(1, 5);
      break;
    }
    case 'D': {
      // Rich interconnect: 2×4 mesh plus diagonals and wrap links — the
      // fastest irregular composition.
      ic.addBidirectional(0, 1);
      ic.addBidirectional(1, 2);
      ic.addBidirectional(2, 3);
      ic.addBidirectional(4, 5);
      ic.addBidirectional(5, 6);
      ic.addBidirectional(6, 7);
      ic.addBidirectional(0, 4);
      ic.addBidirectional(1, 5);
      ic.addBidirectional(2, 6);
      ic.addBidirectional(3, 7);
      ic.addBidirectional(0, 5);
      ic.addBidirectional(1, 6);
      ic.addBidirectional(2, 7);
      ic.addBidirectional(1, 4);
      ic.addBidirectional(2, 5);
      ic.addBidirectional(3, 6);
      ic.addBidirectional(0, 3);
      ic.addBidirectional(4, 7);
      break;
    }
    case 'E': {
      // Two fully connected 4-PE clusters joined by a single bridge:
      // locally rich, globally constrained.
      for (PEId i = 0; i < 4; ++i)
        for (PEId j = i + 1; j < 4; ++j) ic.addBidirectional(i, j);
      for (PEId i = 4; i < 8; ++i)
        for (PEId j = i + 1; j < 8; ++j) ic.addBidirectional(i, j);
      ic.addBidirectional(3, 4);
      break;
    }
    case 'F': {
      // Same topology as D, but only two PEs support multiplication
      // ("only the black PEs support multiplication"; DSP utilization drops
      // by 75 % in Table II).
      Composition base = makeIrregular('D', opts);
      mulPEs = {1, 6};
      return Composition("irregularF", makePEs(n, opts, dma, mulPEs),
                         base.interconnect(), opts.contextMemoryLength,
                         opts.cboxSlots);
    }
    default:
      throw Error(std::string("makeIrregular: unknown composition '") + which +
                  "' (expected A..F)");
  }
  ic.computeShortestPaths();
  return Composition(std::string("irregular") + which, makePEs(n, opts, dma),
                     std::move(ic), opts.contextMemoryLength, opts.cboxSlots);
}

Composition makeRing(unsigned numPEs, bool bidirectional,
                     const FactoryOptions& opts) {
  if (numPEs < 2) throw Error("makeRing: need at least 2 PEs");
  Interconnect ic(numPEs);
  for (PEId i = 0; i < numPEs; ++i) {
    if (bidirectional)
      ic.addBidirectional(i, (i + 1) % numPEs);
    else
      ic.addLink(i, (i + 1) % numPEs);
  }
  ic.computeShortestPaths();
  const std::vector<PEId> dma{0, static_cast<PEId>(numPEs / 2)};
  return Composition(
      std::string(bidirectional ? "ring" : "uniring") + std::to_string(numPEs),
      makePEs(numPEs, opts, numPEs > 2 ? dma : std::vector<PEId>{0}),
      std::move(ic), opts.contextMemoryLength, opts.cboxSlots);
}

Composition makeTorus(unsigned rows, unsigned cols,
                      const FactoryOptions& opts) {
  if (rows < 2 || cols < 2) throw Error("makeTorus: need at least 2x2");
  const unsigned n = rows * cols;
  Interconnect ic(n);
  auto id = [cols](unsigned r, unsigned c) { return r * cols + c; };
  for (unsigned r = 0; r < rows; ++r)
    for (unsigned c = 0; c < cols; ++c) {
      ic.addBidirectional(id(r, c), id(r, (c + 1) % cols));
      ic.addBidirectional(id(r, c), id((r + 1) % rows, c));
    }
  ic.computeShortestPaths();
  return Composition("torus" + std::to_string(rows) + "x" + std::to_string(cols),
                     makePEs(n, opts, {0, static_cast<PEId>(n - 1)}),
                     std::move(ic), opts.contextMemoryLength, opts.cboxSlots);
}

Composition makeStar(unsigned numPEs, const FactoryOptions& opts) {
  if (numPEs < 2) throw Error("makeStar: need at least 2 PEs");
  Interconnect ic(numPEs);
  for (PEId i = 1; i < numPEs; ++i) ic.addBidirectional(0, i);
  ic.computeShortestPaths();
  return Composition("star" + std::to_string(numPEs),
                     makePEs(numPEs, opts, {0}), std::move(ic),
                     opts.contextMemoryLength, opts.cboxSlots);
}

Composition makeTopology(const std::string& name, const std::string& topology,
                         unsigned rows, unsigned cols,
                         const FactoryOptions& opts,
                         const std::vector<PEId>& dmaPEs,
                         const std::vector<PEId>& mulPEs) {
  const unsigned n = rows * cols;
  if (n == 0)
    throw Error("makeTopology: \"" + name + "\": zero-PE array (" +
                std::to_string(rows) + "x" + std::to_string(cols) + ")");
  if (dmaPEs.empty())
    throw Error("makeTopology: \"" + name + "\": at least one DMA PE required");
  for (PEId id : dmaPEs)
    if (id >= n)
      throw Error("makeTopology: \"" + name + "\": DMA PE " +
                  std::to_string(id) + " out of range (array has " +
                  std::to_string(n) + " PEs)");
  for (PEId id : mulPEs)
    if (id >= n)
      throw Error("makeTopology: \"" + name + "\": MUL PE " +
                  std::to_string(id) + " out of range (array has " +
                  std::to_string(n) + " PEs)");

  Interconnect ic(n);
  if (topology == "mesh") {
    ic = meshLinks(rows, cols);
  } else if (topology == "torus") {
    if (rows < 2 || cols < 2)
      throw Error("makeTopology: \"" + name + "\": torus needs at least 2x2");
    auto id = [cols](unsigned r, unsigned c) { return r * cols + c; };
    for (unsigned r = 0; r < rows; ++r)
      for (unsigned c = 0; c < cols; ++c) {
        ic.addBidirectional(id(r, c), id(r, (c + 1) % cols));
        ic.addBidirectional(id(r, c), id((r + 1) % rows, c));
      }
  } else if (topology == "ring" || topology == "uniring") {
    if (n < 2)
      throw Error("makeTopology: \"" + name + "\": ring needs at least 2 PEs");
    for (PEId i = 0; i < n; ++i) {
      if (topology == "ring")
        ic.addBidirectional(i, (i + 1) % n);
      else
        ic.addLink(i, (i + 1) % n);
    }
  } else if (topology == "star") {
    if (n < 2)
      throw Error("makeTopology: \"" + name + "\": star needs at least 2 PEs");
    for (PEId i = 1; i < n; ++i) ic.addBidirectional(0, i);
  } else {
    throw Error("makeTopology: \"" + name + "\": unknown topology \"" +
                topology + "\" (mesh|torus|ring|uniring|star)");
  }
  ic.computeShortestPaths();
  return Composition(name, makePEs(n, opts, dmaPEs, mulPEs), std::move(ic),
                     opts.contextMemoryLength, opts.cboxSlots);
}

Composition resolveComposition(const std::string& name) {
  if (name.rfind("mesh", 0) == 0)
    return makeMesh(static_cast<unsigned>(std::stoul(name.substr(4))));
  if (name.size() == 1 && name[0] >= 'A' && name[0] <= 'F')
    return makeIrregular(name[0]);
  if (name.find(".json") != std::string::npos)
    return Composition::fromJsonFile(name);
  throw Error("unknown composition \"" + name +
              "\" (expected meshN, A..F, or a .json path)");
}

const std::vector<unsigned>& meshSizes() {
  static const std::vector<unsigned> kSizes{4, 6, 8, 9, 12, 16};
  return kSizes;
}

const std::vector<char>& irregularLabels() {
  static const std::vector<char> kLabels{'A', 'B', 'C', 'D', 'E', 'F'};
  return kLabels;
}

}  // namespace cgra
