#include "common/wallclock.hpp"

#include <chrono>

namespace nvmooc::wallclock {

Time now_ns() {
  return Time{std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count()};
}

}  // namespace nvmooc::wallclock
