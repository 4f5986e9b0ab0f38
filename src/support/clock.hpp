// The one wall-clock helper behind every millisecond timing in the toolflow
// (scheduler runs, sweeps, explore generations, benches).
#pragma once

#include <chrono>

namespace cgra {

/// Milliseconds elapsed on the steady clock since `start`.
inline double msSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace cgra
