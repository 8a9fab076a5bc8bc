#include "sim/timeline.hpp"

#include <algorithm>

namespace nvmooc {

Timeline::Timeline(bool backfill, std::size_t max_gaps)
    : backfill_(backfill), max_gaps_(max_gaps) {}

Reservation Timeline::scan_gaps(Time earliest, Time duration) {
  std::size_t chosen = gaps_.size();
  for (std::size_t i = first_gap_ending_at_or_after(earliest + duration); i < gaps_.size(); ++i) {
    const Gap& gap = gaps_[i];
    if (std::max(gap.start, earliest) + duration <= gap.end &&
        (chosen == gaps_.size() || gap.seq < gaps_[chosen].seq)) {
      chosen = i;
    }
  }
  if (chosen == gaps_.size()) return append(earliest, duration);

  const Gap old = gaps_[chosen];
  const Time start = std::max(old.start, earliest);
  const Time end = start + duration;
  // Split the gap around the grant; the pieces are new gaps, left piece
  // first.
  const auto at = gaps_.begin() + static_cast<std::ptrdiff_t>(chosen);
  const bool left = old.start < start;
  const bool right = end < old.end;
  if (left && right) {
    *at = {old.start, start, next_gap_seq_++};
    gaps_.insert(at + 1, {end, old.end, next_gap_seq_++});
  } else if (left) {
    *at = {old.start, start, next_gap_seq_++};
  } else if (right) {
    *at = {end, old.end, next_gap_seq_++};
  } else {
    gaps_.erase(at);
  }
  return {start, end, start - earliest};
}

void Timeline::open_gap(Time start) {
  gaps_.push_back({next_free_, start, next_gap_seq_++});
  if (dead_gaps_ + gaps_.size() > max_gaps_) {
    // Drop the oldest (earliest) gap: it is the least likely to be
    // usable, since request arrival times only move forward. Dead gaps
    // come first in start order.
    if (dead_gaps_ > 0) {
      --dead_gaps_;
    } else {
      gaps_.erase(gaps_.begin());
    }
  }
}

void Timeline::fold_before(Time watermark) {
  // Gap ends ascend, so the gaps no grant at or after the watermark can
  // fit are the front of the list.
  const auto live = std::partition_point(gaps_.begin(), gaps_.end(), [watermark](const Gap& gap) {
    return gap.end <= watermark;
  });
  dead_gaps_ += static_cast<std::size_t>(live - gaps_.begin());
  gaps_.erase(gaps_.begin(), live);
}

}  // namespace nvmooc
