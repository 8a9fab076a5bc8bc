#include "sim/timeline.hpp"

#include <algorithm>

#include "common/probe.hpp"
#include "obs/host_profiler.hpp"

namespace nvmooc {

Timeline::Timeline(bool backfill, std::size_t max_gaps)
    : backfill_(backfill), max_gaps_(max_gaps) {}

Reservation Timeline::reserve(Time earliest, Time duration) {
  Reservation grant;
  if (duration <= Time{}) {
    grant.start = std::max(earliest, Time{0});
    grant.end = grant.start;
    return grant;
  }

  // Host telemetry (--speed-report): attribute the bookkeeping below to
  // the timeline wall-time bucket. A thread-local null test when no
  // HostSession is installed; never touches the simulated arithmetic.
  obs::HostSection host_section(obs::HostSubsystem::kTimeline);

  // Try to backfill an earlier gap first.
  if (backfill_) {
    for (std::size_t i = 0; i < gaps_.size(); ++i) {
      const Time start = std::max(gaps_[i].start, earliest);
      if (start + duration <= gaps_[i].end) {
        grant.start = start;
        grant.end = start + duration;
        grant.waited = start - earliest;
        busy_.add_interval(grant.start, grant.end);
        ++reservation_count_;
        // Split the gap around the grant.
        const Gap old = gaps_[i];
        gaps_.erase(gaps_.begin() + static_cast<std::ptrdiff_t>(i));
        if (old.start < grant.start) gaps_.push_back({old.start, grant.start});
        if (grant.end < old.end) gaps_.push_back({grant.end, old.end});
        probe::grant(this, trace_label_, earliest, grant.start, grant.end);
        return grant;
      }
    }
  }

  const Time start = std::max(earliest, next_free_);
  grant.start = start;
  grant.end = start + duration;
  grant.waited = start - earliest;
  busy_.add_interval(grant.start, grant.end);
  ++reservation_count_;

  if (backfill_ && start > next_free_) {
    gaps_.push_back({next_free_, start});
    if (gaps_.size() > max_gaps_) {
      // Drop the oldest (earliest) gap: it is the least likely to be
      // usable, since request arrival times only move forward.
      const auto oldest = std::min_element(
          gaps_.begin(), gaps_.end(),
          [](const Gap& a, const Gap& b) { return a.start < b.start; });
      gaps_.erase(oldest);
    }
  }
  next_free_ = std::max(next_free_, grant.end);
  probe::grant(this, trace_label_, earliest, grant.start, grant.end);
  return grant;
}

Time Timeline::peek(Time earliest, Time duration) const {
  if (duration <= Time{}) return std::max(earliest, Time{0});
  if (backfill_) {
    Time best = std::max(earliest, next_free_);
    for (const Gap& gap : gaps_) {
      const Time start = std::max(gap.start, earliest);
      if (start + duration <= gap.end) best = std::min(best, start);
    }
    return best;
  }
  return std::max(earliest, next_free_);
}

void Timeline::reset() {
  next_free_ = Time{};
  gaps_.clear();
  busy_ = BusyTracker{};
  reservation_count_ = 0;
  probe::release(this);
}

Timeline::~Timeline() {
  // Subscribers forget state keyed by this address: a later Timeline
  // allocated at the same spot is a different resource.
  probe::release(this);
}

}  // namespace nvmooc
