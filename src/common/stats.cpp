#include "common/stats.hpp"

#include <algorithm>

#include "common/logging.hpp"

namespace nvmooc {

void RunningStats::add(double x) {
  ++count_;
  mean_ += (x - mean_) / static_cast<double>(count_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : lo_(lo), hi_(hi),
      // Guard the degenerate shapes (0 buckets / inverted range) that
      // would otherwise make add() index out of bounds or divide by an
      // infinite width: fall back to a single all-absorbing bucket.
      width_(buckets > 0 && hi > lo ? (hi - lo) / static_cast<double>(buckets) : 1.0),
      counts_(std::max<std::size_t>(buckets, 1), 0) {
  if (buckets == 0 || hi <= lo) {
    NVMOOC_LOG_WARN("Histogram([%g, %g), %zu buckets) is degenerate; "
                    "clamped to one bucket",
                    lo, hi, buckets);
  }
}

void Histogram::add(double x, std::uint64_t weight) {
  std::size_t index;
  if (x < lo_) {
    index = 0;
  } else if (x >= hi_) {
    index = counts_.size() - 1;
  } else {
    index = static_cast<std::size_t>((x - lo_) / width_);
    index = std::min(index, counts_.size() - 1);
  }
  counts_[index] += weight;
  total_ += weight;
}

double Histogram::bucket_lo(std::size_t i) const { return lo_ + width_ * static_cast<double>(i); }

double Histogram::quantile(double q) const {
  if (total_ == 0) {
    NVMOOC_LOG_WARN("Histogram::quantile on an empty histogram; returning 0");
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total_);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cumulative + static_cast<double>(counts_[i]);
    if (next >= target) {
      const double frac = counts_[i] ? (target - cumulative) / static_cast<double>(counts_[i]) : 0.0;
      return bucket_lo(i) + frac * width_;
    }
    cumulative = next;
  }
  return hi_;
}

bool BusyTracker::insert_before_last(Time start, Time end) {
  // Find the first interval that ends at or after `start`: the new span
  // touches it or lies wholly before it, and clears every one before it.
  // A backfill lands in an idle gap near the tail, so walk back a few
  // steps before falling back to a binary search.
  constexpr int kWalkBack = 8;
  const auto ends_before = [](const std::pair<Time, Time>& span, Time t) {
    return span.second < t;
  };
  auto at = intervals_.end() - 1;
  for (int steps = 0; at != intervals_.begin() && (at - 1)->second >= start; ++steps) {
    if (steps == kWalkBack) {
      at = std::lower_bound(intervals_.begin(), at, start, ends_before);
      break;
    }
    --at;
  }
  if (end < at->first) {
    intervals_.insert(at, {start, end});
    return true;
  }
  if (at->first <= start && end <= at->second) return false;
  // Overlaps or touches: absorb every interval the union reaches.
  auto last = at + 1;
  while (last != intervals_.end() && last->first <= end) ++last;
  at->first = std::min(at->first, start);
  at->second = std::max((last - 1)->second, end);
  intervals_.erase(at + 1, last);
  return true;
}

Time BusyTracker::busy_time() const {
  Time total = folded_;
  for (const auto& [start, end] : intervals_) total += end - start;
  return total;
}

void BusyTracker::fold_before(Time watermark) {
  // Sorted and disjoint, so the intervals that end by the watermark are a
  // prefix of the list, and at most the next one straddles it.
  const auto live = std::partition_point(
      intervals_.begin(), intervals_.end(),
      [watermark](const std::pair<Time, Time>& span) { return span.second <= watermark; });
  for (auto it = intervals_.begin(); it != live; ++it) folded_ += it->second - it->first;
  if (live != intervals_.end() && live->first < watermark) {
    folded_ += watermark - live->first;
    live->first = watermark;
  }
  intervals_.erase(intervals_.begin(), live);
}

}  // namespace nvmooc
