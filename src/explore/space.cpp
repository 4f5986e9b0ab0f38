#include "explore/space.hpp"

#include <algorithm>
#include <set>

#include "arch/factory.hpp"
#include "support/assert.hpp"

namespace cgra::explore {

namespace {

const std::vector<std::string>& knownTopologies() {
  static const std::vector<std::string> kNames{"mesh", "torus", "ring",
                                              "uniring", "star"};
  return kNames;
}

bool isKnownTopology(const std::string& t) {
  const auto& names = knownTopologies();
  return std::find(names.begin(), names.end(), t) != names.end();
}

std::string joinIds(const std::vector<PEId>& ids) {
  std::string out;
  for (PEId id : ids) {
    if (!out.empty()) out += '.';
    out += std::to_string(id);
  }
  return out;
}

/// Nearest value in `choices`; on an exact tie the smaller value wins so
/// snapping is deterministic regardless of the list's order.
unsigned snapChoice(unsigned v, const std::vector<unsigned>& choices) {
  unsigned best = choices.front();
  for (unsigned c : choices) {
    const unsigned dBest = best > v ? best - v : v - best;
    const unsigned dC = c > v ? c - v : v - c;
    if (dC < dBest || (dC == dBest && c < best)) best = c;
  }
  return best;
}

template <typename T>
const T& pickFrom(Rng& rng, const std::vector<T>& choices) {
  return choices[static_cast<std::size_t>(
      rng.range(0, static_cast<std::int64_t>(choices.size()) - 1))];
}

/// `count` distinct PE ids < n, ascending (std::set iteration order), so a
/// given RNG stream always yields the same list.
std::vector<PEId> pickDistinctIds(Rng& rng, unsigned n, unsigned count) {
  std::set<PEId> ids;
  while (ids.size() < count)
    ids.insert(static_cast<PEId>(rng.range(0, static_cast<std::int64_t>(n) - 1)));
  return {ids.begin(), ids.end()};
}

void sortUniqueInRange(std::vector<PEId>& ids, unsigned n) {
  ids.erase(std::remove_if(ids.begin(), ids.end(),
                           [n](PEId id) { return id >= n; }),
            ids.end());
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
}

/// Bounds every count and PE id of a genotype or space document.
constexpr json::Range kCount{0, 1 << 20};

// Every key keeps its default when absent, so a document names only the
// knobs it changes.
constexpr auto kGenotype = json::layout<8>([](auto& c, auto& g) {
  c.defaulted("cboxSlots", g.cboxSlots, kCount);
  c.defaulted("cols", g.cols, kCount);
  c.defaulted("contextLength", g.contextLength, kCount);
  c.defaulted("dmaPEs", g.dmaPEs, kCount);
  c.defaulted("mulPEs", g.mulPEs, kCount);
  c.defaulted("rfSize", g.rfSize, kCount);
  c.defaulted("rows", g.rows, kCount);
  c.defaulted("topology", g.topology);
});

constexpr auto kSpace = json::layout<10>([](auto& c, auto& s) {
  c.defaulted("allowHeteroMul", s.allowHeteroMul);
  c.defaulted("cboxSlots", s.cboxChoices, kCount);
  c.defaulted("contextLengths", s.contextLengths, kCount);
  c.defaulted("maxCols", s.maxCols, kCount);
  c.defaulted("maxDmaPEs", s.maxDmaPEs, kCount);
  c.defaulted("maxRows", s.maxRows, kCount);
  c.defaulted("minCols", s.minCols, kCount);
  c.defaulted("minRows", s.minRows, kCount);
  c.defaulted("rfSizes", s.rfSizes, kCount);
  c.defaulted("topologies", s.topologies);
});

}  // namespace

std::string Genotype::key() const {
  return topology + std::to_string(rows) + "x" + std::to_string(cols) +
         "-rf" + std::to_string(rfSize) + "-cb" + std::to_string(cboxSlots) +
         "-cx" + std::to_string(contextLength) + "-d" + joinIds(dmaPEs) +
         "-m" + (mulPEs.empty() ? std::string("all") : joinIds(mulPEs));
}

Composition Genotype::materialize() const {
  FactoryOptions opts;
  opts.regfileSize = rfSize;
  opts.contextMemoryLength = contextLength;
  opts.cboxSlots = cboxSlots;
  return makeTopology(key(), topology, rows, cols, opts, dmaPEs, mulPEs);
}

json::Value Genotype::toJson() const { return json::encode(kGenotype, *this); }

Genotype Genotype::fromJson(const json::Value& v) {
  Genotype g;
  json::decode(kGenotype, v, "explore genotype", g);
  if (!isKnownTopology(g.topology))
    throw Error("explore genotype: unknown topology \"" + g.topology + "\"");
  return g;
}

void CompositionSpace::validate() const {
  if (topologies.empty())
    throw Error("explore space: empty topology list");
  for (const std::string& t : topologies) {
    if (!isKnownTopology(t))
      throw Error("explore space: unknown topology \"" + t +
                  "\" (mesh|torus|ring|uniring|star)");
    if (std::count(topologies.begin(), topologies.end(), t) > 1)
      throw Error("explore space: duplicate topology \"" + t + "\"");
  }
  if (minRows < 1 || minCols < 1 || minRows > maxRows || minCols > maxCols)
    throw Error("explore space: bad shape range " + std::to_string(minRows) +
                ".." + std::to_string(maxRows) + " x " +
                std::to_string(minCols) + ".." + std::to_string(maxCols));
  if (maxRows * maxCols < 2)
    throw Error("explore space: largest shape has fewer than 2 PEs");
  if (maxRows * maxCols > 64)
    throw Error("explore space: largest shape exceeds 64 PEs");
  const bool hasTorus =
      std::find(topologies.begin(), topologies.end(), "torus") !=
      topologies.end();
  if (hasTorus && (maxRows < 2 || maxCols < 2))
    throw Error("explore space: torus requires a shape range reaching 2x2");
  if (rfSizes.empty())
    throw Error("explore space: empty rfSizes");
  for (unsigned rf : rfSizes)
    if (rf < 4)
      throw Error("explore space: RF size " + std::to_string(rf) +
                  " below the minimum of 4");
  if (cboxChoices.empty())
    throw Error("explore space: empty cboxSlots choices");
  for (unsigned cb : cboxChoices)
    if (cb < 2)
      throw Error("explore space: C-Box slots " + std::to_string(cb) +
                  " below the minimum of 2");
  if (contextLengths.empty())
    throw Error("explore space: empty contextLengths");
  for (unsigned cx : contextLengths)
    if (cx == 0)
      throw Error("explore space: context length 0");
  if (maxDmaPEs < 1 || maxDmaPEs > 4)
    throw Error("explore space: maxDmaPEs must be 1..4, got " +
                std::to_string(maxDmaPEs));
}

Genotype CompositionSpace::sample(Rng& rng) const {
  Genotype g;
  g.topology = pickFrom(rng, topologies);
  unsigned rowLo = minRows;
  unsigned colLo = minCols;
  if (g.topology == "torus") {
    rowLo = std::max(rowLo, 2u);
    colLo = std::max(colLo, 2u);
  }
  g.rows = static_cast<unsigned>(rng.range(rowLo, maxRows));
  g.cols = static_cast<unsigned>(rng.range(colLo, maxCols));
  g.rfSize = pickFrom(rng, rfSizes);
  g.cboxSlots = pickFrom(rng, cboxChoices);
  g.contextLength = pickFrom(rng, contextLengths);

  const unsigned n = g.numPEs();
  const unsigned dmaCap = std::min({maxDmaPEs, 4u, n});
  const unsigned dmaCount = static_cast<unsigned>(rng.range(1, dmaCap));
  g.dmaPEs = pickDistinctIds(rng, n, dmaCount);

  g.mulPEs.clear();
  if (allowHeteroMul && n > 1 && rng.chance(1, 2)) {
    // A proper subset keeps multipliers; the full set is the homogeneous
    // case already encoded as "empty".
    const unsigned mulCount = static_cast<unsigned>(rng.range(1, n - 1));
    g.mulPEs = pickDistinctIds(rng, n, mulCount);
  }
  repair(g);
  return g;
}

void CompositionSpace::repair(Genotype& g) const {
  if (std::find(topologies.begin(), topologies.end(), g.topology) ==
      topologies.end())
    g.topology = topologies.front();

  g.rows = std::clamp(g.rows, minRows, maxRows);
  g.cols = std::clamp(g.cols, minCols, maxCols);
  if (g.topology == "torus") {
    g.rows = std::max(g.rows, 2u);  // validate() guarantees maxRows >= 2
    g.cols = std::max(g.cols, 2u);
  }
  // Every topology family (and the scheduler) needs at least two PEs.
  while (g.numPEs() < 2 && (g.cols < maxCols || g.rows < maxRows)) {
    if (g.cols < maxCols)
      ++g.cols;
    else
      ++g.rows;
  }

  g.rfSize = snapChoice(g.rfSize, rfSizes);
  g.cboxSlots = snapChoice(g.cboxSlots, cboxChoices);
  g.contextLength = snapChoice(g.contextLength, contextLengths);

  const unsigned n = g.numPEs();
  sortUniqueInRange(g.dmaPEs, n);
  const unsigned dmaCap = std::min({maxDmaPEs, 4u, n});
  if (g.dmaPEs.size() > dmaCap) g.dmaPEs.resize(dmaCap);
  if (g.dmaPEs.empty()) g.dmaPEs = {0};

  if (!allowHeteroMul) g.mulPEs.clear();
  sortUniqueInRange(g.mulPEs, n);
  // Canonical form: "every PE multiplies" is the empty list.
  if (g.mulPEs.size() >= n) g.mulPEs.clear();
}

bool CompositionSpace::contains(const Genotype& g) const {
  Genotype repaired = g;
  repair(repaired);
  return repaired.key() == g.key();
}

json::Value CompositionSpace::toJson() const {
  return json::encode(kSpace, *this);
}

CompositionSpace CompositionSpace::fromJson(const json::Value& v) {
  CompositionSpace s;
  json::decode(kSpace, v, "explore space", s);
  s.validate();
  return s;
}

CompositionSpace CompositionSpace::fromJsonFile(const std::string& path) {
  return fromJson(json::parseFile(path));
}

}  // namespace cgra::explore
