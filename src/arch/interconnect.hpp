// Interconnect model: for each PE, the list of source PEs whose register-file
// output port it can read (paper §IV-B: "mainly a list of available sources
// for each PE"). The structure is directed and may be arbitrarily irregular.
//
// The scheduler needs all-pairs shortest paths to insert copy chains between
// non-adjacent PEs; the paper uses Floyd's algorithm [19], implemented here
// with next-hop reconstruction. Link tests, distances and next hops are
// flat-table lookups: the scheduler's routing probes ask them millions of
// times per sweep.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "json/json.hpp"
#include "support/assert.hpp"

namespace cgra {

/// Index of a PE within a composition.
using PEId = unsigned;

/// Marker for "no path exists".
inline constexpr unsigned kUnreachable = std::numeric_limits<unsigned>::max();

/// Directed interconnect between PEs of one composition.
class Interconnect {
public:
  Interconnect() = default;
  explicit Interconnect(unsigned numPEs)
      : sources_(numPEs), linked_(std::size_t{numPEs} * numPEs, 0) {}

  unsigned numPEs() const { return static_cast<unsigned>(sources_.size()); }

  /// Declares that `to` can read the output port of `from`.
  void addLink(PEId from, PEId to);
  /// Adds links in both directions.
  void addBidirectional(PEId a, PEId b);

  /// PEs whose output port `pe` can read.
  const std::vector<PEId>& sources(PEId pe) const;
  /// PEs that can read `pe`'s output port (computed on demand).
  std::vector<PEId> sinks(PEId pe) const;

  /// True when `to` can read the output port of `from`; O(1).
  bool hasLink(PEId from, PEId to) const {
    CGRA_ASSERT(from < numPEs() && to < numPEs());
    return linked_[std::size_t{from} * numPEs() + to] != 0;
  }

  /// Total number of directed links.
  std::size_t numLinks() const;

  /// Computes hop distances and next-hop matrix (Floyd–Warshall). Must be
  /// called after the link set is final and before distance()/nextHop().
  void computeShortestPaths();

  /// Hop count of the shortest path from `from` to `to`; kUnreachable when
  /// disconnected; 0 when from == to.
  unsigned distance(PEId from, PEId to) const {
    CGRA_ASSERT_MSG(pathsComputed_, "call computeShortestPaths() first");
    CGRA_ASSERT(from < numPEs() && to < numPEs());
    return dist_[std::size_t{from} * numPEs() + to];
  }

  /// The PE after `from` on a shortest path to `to` (`to` itself when the
  /// two are linked, `from` when they are equal). `to` must be reachable:
  /// walking nextHop from `from` reaches `to` in distance(from, to) hops.
  PEId nextHop(PEId from, PEId to) const {
    CGRA_ASSERT(distance(from, to) != kUnreachable);
    return nextHop_[std::size_t{from} * numPEs() + to];
  }

  /// True when every PE can (transitively) reach every other PE.
  bool stronglyConnected() const;

  /// Writes {"sources": [[...] per PE]}.
  void writeJson(json::Writer& w) const;
  static Interconnect fromJson(const json::Value& v, unsigned expectedPEs);

private:
  std::vector<std::vector<PEId>> sources_;
  // linked_[from * n + to] is 1 iff `to` lists `from` as a source.
  std::vector<std::uint8_t> linked_;
  // dist_[from * n + to]; nextHop_[from * n + to] is the next PE on the
  // shortest from→to path.
  std::vector<unsigned> dist_;
  std::vector<PEId> nextHop_;
  bool pathsComputed_ = false;
};

}  // namespace cgra
