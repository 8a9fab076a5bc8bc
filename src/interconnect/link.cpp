#include "interconnect/link.hpp"

#include <algorithm>

#include "common/probe.hpp"

namespace nvmooc {

DmaEngine::DmaEngine(const LinkConfig& config) : config_(config), link_(false) {}

Reservation DmaEngine::transfer(Time earliest, Bytes bytes) {
  // Fixed latencies delay the start; the link itself is held only for the
  // wire time of the payload.
  const Time ready = earliest + config_.request_latency + config_.bridge_latency;
  Reservation grant = link_.reserve(ready, config_.payload_time(bytes));
  grant.waited += config_.request_latency + config_.bridge_latency;
  busy_.add_interval(grant.start, grant.end);
  probe::link(label_, earliest, ready, grant.start, grant.end);
  return grant;
}

void DmaEngine::advance_watermark(Time watermark) {
  if (busy_.interval_count() < fold_at_) return;
  busy_.fold_before(watermark);
  fold_at_ = std::max(kMinFold, 2 * busy_.interval_count());
}

}  // namespace nvmooc
