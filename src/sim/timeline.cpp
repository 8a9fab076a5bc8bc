#include "sim/timeline.hpp"

#include <algorithm>

namespace nvmooc {

Timeline::Timeline(bool backfill, std::uint32_t max_gaps)
    : max_gaps_(max_gaps), backfill_(backfill) {}

Reservation Timeline::scan_gaps(Time earliest, Time duration) {
  if (duration < split_) lower_split(duration);
  // Every gap that fits is in the long segment and ends at or after
  // `earliest + duration`: walk back over those.
  std::size_t chosen = gaps_.size();
  for (std::size_t i = gaps_.size(); i > short_gaps_ && gaps_[i - 1].end >= earliest + duration;
       --i) {
    const Gap& gap = gaps_[i - 1];
    if (std::max(gap.start, earliest) + duration <= gap.end &&
        (chosen == gaps_.size() || gap.seq < gaps_[chosen].seq)) {
      chosen = i - 1;
    }
  }
  if (chosen == gaps_.size()) return append(earliest, duration);

  const Gap old = gaps_[chosen];
  const Time start = std::max(old.start, earliest);
  const Time end = start + duration;
  // Split the gap around the grant; the pieces are new gaps, left piece
  // first. Long pieces take the old slot, short ones the short segment.
  Gap pieces[2];
  int count = 0;
  if (old.start < start) pieces[count++] = {old.start, start, next_gap_seq_++};
  if (end < old.end) pieces[count++] = {end, old.end, next_gap_seq_++};
  auto slot = gaps_.begin() + static_cast<std::ptrdiff_t>(chosen);
  bool slot_used = false;
  for (int k = 0; k < count; ++k) {
    if (is_short(pieces[k])) continue;
    if (slot_used) {
      gaps_.insert(slot + 1, pieces[k]);
    } else {
      *slot = pieces[k];
      slot_used = true;
    }
  }
  if (!slot_used) gaps_.erase(slot);
  for (int k = 0; k < count; ++k) {
    if (is_short(pieces[k])) insert_short(pieces[k]);
  }
  return {start, end, start - earliest};
}

void Timeline::lower_split(Time duration) {
  split_ = duration;
  // The gaps still short stay at the front and the rest join the long
  // segment; gap starts are distinct, so sorting each segment restores
  // start order. Unlike stable_partition and inplace_merge, these take
  // no temporary buffer outside the gap list's allocator.
  const auto moved = std::partition(gaps_.begin(), gaps_.begin() + short_gaps_,
                                    [this](const Gap& gap) { return is_short(gap); });
  short_gaps_ = static_cast<std::uint32_t>(moved - gaps_.begin());
  const auto by_start = [](const Gap& a, const Gap& b) { return a.start < b.start; };
  std::sort(gaps_.begin(), moved, by_start);
  std::sort(moved, gaps_.end(), by_start);
}

void Timeline::insert_short(const Gap& gap) {
  const auto short_end = gaps_.begin() + short_gaps_;
  const auto at = std::upper_bound(gaps_.begin(), short_end, gap.start,
                                   [](Time t, const Gap& other) { return t < other.start; });
  gaps_.insert(at, gap);
  ++short_gaps_;
}

void Timeline::open_gap(Time start) {
  const Gap gap{next_free_, start, next_gap_seq_++};
  // The newest gap starts after every other, so it ends its segment.
  if (is_short(gap)) {
    gaps_.insert(gaps_.begin() + short_gaps_, gap);
    ++short_gaps_;
  } else {
    gaps_.push_back(gap);
  }
  if (dead_gaps_ + gaps_.size() > max_gaps_) {
    // Drop the oldest (earliest) gap: it is the least likely to be
    // usable, since request arrival times only move forward. Dead gaps
    // come first in start order; the earliest live gap fronts one of
    // the two segments.
    if (dead_gaps_ > 0) {
      --dead_gaps_;
    } else if (short_gaps_ > 0 && (short_gaps_ == gaps_.size() ||
                                   gaps_.front().start < gaps_[short_gaps_].start)) {
      gaps_.erase(gaps_.begin());
      --short_gaps_;
    } else {
      gaps_.erase(gaps_.begin() + short_gaps_);
    }
  }
}

void Timeline::fold_before(Time watermark) {
  // Gap ends ascend within each segment, so the gaps no grant at or
  // after the watermark can fit are the front of each.
  const auto dead = [watermark](const Gap& gap) { return gap.end <= watermark; };
  const auto short_end = gaps_.begin() + short_gaps_;
  const auto long_live = std::partition_point(short_end, gaps_.end(), dead);
  const auto long_dead = static_cast<std::uint32_t>(long_live - short_end);
  gaps_.erase(short_end, long_live);
  const auto short_live = std::partition_point(gaps_.begin(), gaps_.begin() + short_gaps_, dead);
  const auto short_dead = static_cast<std::uint32_t>(short_live - gaps_.begin());
  gaps_.erase(gaps_.begin(), short_live);
  short_gaps_ -= short_dead;
  dead_gaps_ += short_dead + long_dead;
}

}  // namespace nvmooc
