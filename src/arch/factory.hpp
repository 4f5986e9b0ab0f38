// Built-in composition factories reproducing the paper's evaluated CGRAs:
// the homogeneous meshes of Fig. 13 (4, 6, 8, 9, 12 and 16 PEs, grey PEs
// with DMA) and the irregular/inhomogeneous 8-PE compositions A–F of
// Fig. 14 (B: sparse interconnect, D: rich interconnect, F: like D but only
// two multiplier-capable PEs).
//
// The paper prints only small schematic drawings of the irregular
// topologies; the factories encode link sets that match every property the
// text states (B has "little interconnect", C/D/F rich and near-equal, E in
// between, F saves 75 % of the DSPs). DESIGN.md records this substitution.
#pragma once

#include <string>
#include <vector>

#include "arch/composition.hpp"

namespace cgra {

/// Options shared by all factory compositions.
struct FactoryOptions {
  unsigned regfileSize = 128;        ///< paper §VI-B: "RF size of 128"
  unsigned contextMemoryLength = 256;  ///< paper §VI-B: "context size of 256"
  unsigned cboxSlots = 32;
  bool blockMultiplier = true;  ///< 2-cycle IMUL (Table II) vs 1-cycle (Table III)
};

/// Rectangular mesh with bidirectional 4-neighbour links.
/// `numPEs` must be one of {4, 6, 8, 9, 12, 16} (Fig. 13); DMA PEs are
/// spread over the array like the grey PEs in the figure.
Composition makeMesh(unsigned numPEs, const FactoryOptions& opts = {});

/// Rows × cols mesh for arbitrary shapes (used by tests and ablations).
Composition makeMeshGrid(unsigned rows, unsigned cols,
                         const FactoryOptions& opts = {},
                         std::vector<PEId> dmaPEs = {});

/// Irregular 8-PE composition `which` ∈ {'A'..'F'} of Fig. 14.
Composition makeIrregular(char which, const FactoryOptions& opts = {});

/// Ring of `numPEs` (uni- or bidirectional links); minimal interconnect in
/// the style of composition B.
Composition makeRing(unsigned numPEs, bool bidirectional = true,
                     const FactoryOptions& opts = {});

/// Torus: mesh with wrap-around links in both dimensions.
Composition makeTorus(unsigned rows, unsigned cols,
                      const FactoryOptions& opts = {});

/// Star: one hub (PE 0, with DMA) bidirectionally linked to every spoke —
/// the crossbar-like extreme the related work discusses ([11]); cheap
/// routing, hub contention.
Composition makeStar(unsigned numPEs, const FactoryOptions& opts = {});

/// General builder over the named topology families, used by the
/// design-space explorer (src/explore) to materialize arbitrary points of a
/// CompositionSpace. `topology` ∈ {"mesh", "torus", "ring", "uniring",
/// "star"}; `rows`×`cols` PEs (ring/star treat the product as the PE
/// count); `dmaPEs` lists the DMA-capable PEs (required, ≤ 4 per the
/// paper); `mulPEs` restricts IMUL to the listed PEs (empty = all PEs
/// multiply). Throws a typed Error on any degenerate input — zero-PE
/// arrays, out-of-range DMA/MUL ids, torus smaller than 2×2, unknown
/// topology — and Composition::validate() re-checks the result, so a
/// returned Composition is always schedulable-shaped.
Composition makeTopology(const std::string& name, const std::string& topology,
                         unsigned rows, unsigned cols,
                         const FactoryOptions& opts,
                         const std::vector<PEId>& dmaPEs,
                         const std::vector<PEId>& mulPEs = {});

/// Resolves a composition name as the CLI and the compile service accept
/// it: `meshN` (makeMesh), a letter `A`..`F` (makeIrregular), or a path
/// containing `.json` (Composition::fromJsonFile). Throws cgra::Error on
/// any other name.
Composition resolveComposition(const std::string& name);

/// All Fig. 13 mesh sizes in paper order: {4, 6, 8, 9, 12, 16}.
const std::vector<unsigned>& meshSizes();

/// All Fig. 14 labels in paper order: {'A'..'F'}.
const std::vector<char>& irregularLabels();

}  // namespace cgra
