// Monotonic nanosecond timestamp shared by the runtime's rate gates
// (rebalance polling, parcel-port burst detection).
#pragma once

#include <chrono>
#include <cstdint>

namespace px::util {

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace px::util
