// Test-only probe subscriber: counts the reported intervals that occupy
// their resource (end > start). Every owner of a Timeline reports each
// reservation of positive duration as one such interval (a controller
// step or a link transfer); the RPC window and channel stalls occupy
// nothing. Install it in the latency slot, which no accessor casts to its
// instrument type:
//   const probe::Scoped listen(probe::Slot::kLatency, &counter);
#pragma once

#include <cstdint>

#include "common/probe.hpp"

namespace nvmooc {

class IntervalCounter final : public probe::Subscriber {
 public:
  IntervalCounter() : probe::Subscriber(probe::bit(probe::Kind::kInterval)) {}
  void on_interval(const probe::Interval& interval) override {
    if (interval.end > interval.start) ++intervals;
  }
  std::uint64_t intervals = 0;
};

}  // namespace nvmooc
