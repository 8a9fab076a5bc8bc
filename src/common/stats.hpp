// Streaming statistics used by the simulator's per-resource accounting and
// by the benchmark harness when summarising sweeps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/alloc_counter.hpp"
#include "common/units.hpp"

namespace nvmooc {

/// Streaming accumulator: count, running (Welford) mean and range without
/// storing samples.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Fixed-bucket histogram over [lo, hi); samples outside are clamped into
/// the boundary buckets so totals always reconcile.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t buckets);

  void add(double x, std::uint64_t weight = 1);

  std::uint64_t total() const { return total_; }
  std::uint64_t bucket(std::size_t i) const { return counts_[i]; }
  double bucket_lo(std::size_t i) const;

  /// Linear-interpolated quantile in [0, 1]. An empty histogram yields 0
  /// with a warning (a percentile of nothing is a caller bug, not UB —
  /// check total() first when empty is expected).
  double quantile(double q) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
};

/// Accumulates busy time on a resource from possibly-overlapping intervals
/// and reports utilisation over a window. Intervals may arrive out of
/// order; overlapping busy spans are unioned, which is exactly what
/// "channel was busy" means when multiple transactions pipeline on it.
///
/// The interval list is kept sorted, disjoint and non-touching on every
/// insert. A grant at or past the last interval appends or extends it; an
/// out-of-order grant (a backfill) lands in an idle gap near the tail, so
/// a short walk back from the tail finds its slot, with a binary search
/// as the fallback.
///
/// Busy time that can no longer change is folded away (fold_before): its
/// intervals leave the list and only their total is kept, so busy_time()
/// stays exact while the list holds just the live tail.
class BusyTracker {
 public:
  /// Unions [start, end) in; returns whether the union grew, false when
  /// the span was empty or already busy.
  bool add_interval(Time start, Time end) {
    if (end <= start) return false;
    // In-order grants — the common case for a busy resource — append or
    // extend the last interval, keeping memory proportional to the number
    // of idle gaps, not reservations.
    if (intervals_.empty() || start > intervals_.back().second) {
      intervals_.emplace_back(start, end);
      return true;
    }
    if (start >= intervals_.back().first) {
      if (end <= intervals_.back().second) return false;
      intervals_.back().second = end;
      return true;
    }
    return insert_before_last(start, end);
  }

  /// Total busy time, folded and live; linear in the live interval count.
  [[nodiscard]] Time busy_time() const;

  std::size_t interval_count() const { return intervals_.size(); }

  /// Adds the length of the busy intervals before `watermark` to the
  /// folded total and drops them from the list. An interval straddling
  /// the watermark is split there, exactly. The caller promises that no
  /// later add_interval starts before `watermark`.
  void fold_before(Time watermark);

  /// Busy intervals charge the host profiler's timeline memory tally:
  /// they are the dominant per-resource storage on long replays.
  using IntervalStore =
      std::vector<std::pair<Time, Time>,
                  CountingAllocator<std::pair<Time, Time>, AllocDomain::kTimeline>>;

  /// Sorted, disjoint, non-touching list of the live (unfolded) intervals.
  const IntervalStore& intervals() const { return intervals_; }

 private:
  /// add_interval() for a span that starts inside or before an interval
  /// other than the last (a backfill).
  bool insert_before_last(Time start, Time end);

  IntervalStore intervals_;
  /// Busy time of the intervals fold_before() dropped.
  Time folded_;
};

}  // namespace nvmooc
