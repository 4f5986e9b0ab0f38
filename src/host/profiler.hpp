// Hardware-profiler analog (paper §III, ref [17]): AMIDAR detects bytecode
// sequences whose execution count exceeds a threshold; those sequences are
// then synthesized onto the CGRA. Every TokenMachine::run counts its taken
// backward branches (loop back-edges) per branch pc, so the baseline run is
// also the profile run. hotRegions turns those counts into the candidate
// regions that drive the synthesis decision in the paper's Fig. 1 flow.
#pragma once

#include <cstdint>
#include <vector>

#include "host/token_machine.hpp"

namespace cgra {

/// A candidate acceleration region: a pc range executed repeatedly.
struct HotRegion {
  std::size_t startPc = 0;  ///< branch target (loop header)
  std::size_t endPc = 0;    ///< backward branch instruction
  std::uint64_t executions = 0;
};

/// The back-edges of `run` (a run of `fn`) taken at least `threshold` times
/// (and at least once), hottest first; equal counts keep pc order.
std::vector<HotRegion> hotRegions(const BytecodeFunction& fn,
                                  const TokenRunResult& run,
                                  std::uint64_t threshold);

}  // namespace cgra
