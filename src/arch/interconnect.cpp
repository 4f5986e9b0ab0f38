#include "arch/interconnect.hpp"

#include "support/assert.hpp"

namespace cgra {

void Interconnect::addLink(PEId from, PEId to) {
  CGRA_ASSERT(from < numPEs() && to < numPEs());
  if (from == to) return;  // a PE always reads its own RF; no link needed
  std::uint8_t& linked = linked_[std::size_t{from} * numPEs() + to];
  if (linked == 0) sources_[to].push_back(from);
  linked = 1;
  pathsComputed_ = false;
}

void Interconnect::addBidirectional(PEId a, PEId b) {
  addLink(a, b);
  addLink(b, a);
}

const std::vector<PEId>& Interconnect::sources(PEId pe) const {
  CGRA_ASSERT(pe < numPEs());
  return sources_[pe];
}

std::vector<PEId> Interconnect::sinks(PEId pe) const {
  std::vector<PEId> out;
  for (PEId to = 0; to < numPEs(); ++to)
    if (hasLink(pe, to)) out.push_back(to);
  return out;
}

std::size_t Interconnect::numLinks() const {
  std::size_t n = 0;
  for (const auto& src : sources_) n += src.size();
  return n;
}

void Interconnect::computeShortestPaths() {
  const unsigned n = numPEs();
  dist_.assign(static_cast<std::size_t>(n) * n, kUnreachable);
  nextHop_.assign(static_cast<std::size_t>(n) * n, n);
  auto d = [&](PEId i, PEId j) -> unsigned& {
    return dist_[static_cast<std::size_t>(i) * n + j];
  };
  auto nh = [&](PEId i, PEId j) -> PEId& {
    return nextHop_[static_cast<std::size_t>(i) * n + j];
  };

  for (PEId i = 0; i < n; ++i) {
    d(i, i) = 0;
    nh(i, i) = i;
  }
  for (PEId to = 0; to < n; ++to)
    for (PEId from : sources_[to]) {
      d(from, to) = 1;
      nh(from, to) = to;
    }

  // Floyd's algorithm [Floyd 1962], as cited by the paper for routing.
  for (PEId k = 0; k < n; ++k)
    for (PEId i = 0; i < n; ++i) {
      if (d(i, k) == kUnreachable) continue;
      for (PEId j = 0; j < n; ++j) {
        if (d(k, j) == kUnreachable) continue;
        const unsigned through = d(i, k) + d(k, j);
        if (through < d(i, j)) {
          d(i, j) = through;
          nh(i, j) = nh(i, k);
        }
      }
    }
  pathsComputed_ = true;
}

bool Interconnect::stronglyConnected() const {
  CGRA_ASSERT_MSG(pathsComputed_, "call computeShortestPaths() first");
  for (PEId i = 0; i < numPEs(); ++i)
    for (PEId j = 0; j < numPEs(); ++j)
      if (distance(i, j) == kUnreachable) return false;
  return true;
}

void Interconnect::writeJson(json::Writer& w) const {
  w.beginObject().key("sources").beginArray();
  for (const std::vector<PEId>& srcs : sources_) {
    w.beginArray();
    for (PEId s : srcs) w.value(s);
    w.endArray();
  }
  w.endArray().endObject();
}

Interconnect Interconnect::fromJson(const json::Value& v, unsigned expectedPEs) {
  const json::Array& perPE = v.asObject().at("sources").asArray();
  if (perPE.size() != expectedPEs)
    throw Error("interconnect lists " + std::to_string(perPE.size()) +
                " PEs, composition has " + std::to_string(expectedPEs));
  Interconnect ic(expectedPEs);
  for (PEId pe = 0; pe < expectedPEs; ++pe)
    for (const json::Value& s : perPE[pe].asArray()) {
      const std::int64_t src = s.asInt();
      if (src < 0 || src >= static_cast<std::int64_t>(expectedPEs))
        throw Error("interconnect source " + std::to_string(src) +
                    " out of range for PE " + std::to_string(pe));
      ic.addLink(static_cast<PEId>(src), pe);
    }
  ic.computeShortestPaths();
  return ic;
}

}  // namespace cgra
