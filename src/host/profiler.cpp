#include "host/profiler.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace cgra {

std::vector<HotRegion> hotRegions(const BytecodeFunction& fn,
                                  const TokenRunResult& run,
                                  std::uint64_t threshold) {
  CGRA_ASSERT(run.backEdges.size() == fn.code.size());
  std::vector<HotRegion> out;
  for (std::size_t pc = 0; pc < run.backEdges.size(); ++pc) {
    const std::uint64_t count = run.backEdges[pc];
    if (count > 0 && count >= threshold)
      out.push_back(
          HotRegion{static_cast<std::size_t>(fn.code[pc].arg), pc, count});
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const HotRegion& a, const HotRegion& b) {
                     return a.executions > b.executions;
                   });
  return out;
}

}  // namespace cgra
