// Reservation timeline: the contention model for serially-occupied
// resources (channel buses, die planes, host links).
//
// A transaction asks to occupy the resource for `duration` starting no
// earlier than `earliest`. The timeline grants the first gap that fits
// (backfilling earlier holes when allowed), records the busy interval, and
// returns the granted [start, end). The difference start - earliest is the
// contention (queueing) time the caller attributes to this resource.
// The timeline reports nothing to the instruments: its owner (the
// controller, a DmaEngine) knows what a reservation was for and tells
// the probe once.
//
// Watermark invariant: an owner that knows no later reservation has
// `earliest` below some time W (the replay engine's issue time, which
// never decreases) may call fold_before(W). Nothing before W can change
// again: no grant starts there, and an idle gap that ends by W can never
// fit one. So the busy intervals before W fold into the tracker's total
// (and are handed to the owner, which folds its cross-resource unions the
// same way), and those dead gaps shrink to a count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/alloc_counter.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"

namespace nvmooc {

struct Reservation {
  Time start;
  Time end;
  /// Queueing delay experienced: start - earliest.
  Time waited;
};

class Timeline {
 public:
  /// When `backfill` is true the timeline keeps a list of earlier idle
  /// gaps and lets short transactions slot into them — this models
  /// out-of-order dispatch at a channel (PAQ-style). When false it is a
  /// strict next-free-time resource (FIFO occupancy).
  ///
  /// `max_gaps` is checked only when a reservation past the tail opens a
  /// new gap: if the list then holds more than `max_gaps`, its earliest
  /// gap is dropped — one gap, not down to the cap. Dead gaps (folded
  /// into a count by fold_before) still count toward the cap, and since
  /// they are the earliest, a drop takes one of them first: the same
  /// choice the unfolded list makes. Splitting a gap
  /// around a backfilled grant can leave two gaps where there was one,
  /// and nothing bounds that growth, so the list can far outgrow
  /// `max_gaps`.
  ///
  /// A backfilled grant goes to the oldest-created gap that fits (the
  /// pieces of a split gap count as new). Gaps are disjoint and kept in
  /// start order, so their ends ascend too: only the suffix of gaps that
  /// end at or after `earliest + duration` can fit, and a binary search
  /// finds where it begins.
  explicit Timeline(bool backfill = false, std::size_t max_gaps = 64);

  /// Reserves `duration` starting at or after `earliest`.
  Reservation reserve(Time earliest, Time duration);

  /// Folds everything before `watermark` away: busy intervals move into
  /// `prefix` (busy().busy_time() stays the exact total) and gaps that end
  /// by the watermark become the dead-gap count. Every later reserve()
  /// must have `earliest >= watermark`; its grant is then the same as on
  /// an unfolded timeline.
  void fold_before(Time watermark, BusyTracker& prefix);

  [[nodiscard]] Time next_free() const { return next_free_; }
  const BusyTracker& busy() const { return busy_; }

 private:
  struct Gap {
    Time start;
    Time end;
    /// Creation order; the grant goes to the lowest that fits.
    std::uint64_t seq = 0;
  };

  /// First gap, in start order, that ends at or after `end`.
  [[nodiscard]] std::size_t first_gap_ending_at_or_after(Time end) const {
    const auto it = std::lower_bound(gaps_.begin(), gaps_.end(), end,
                                     [](const Gap& gap, Time t) { return gap.end < t; });
    return static_cast<std::size_t>(it - gaps_.begin());
  }

  bool backfill_;
  std::size_t max_gaps_;
  Time next_free_;
  /// Disjoint idle gaps before next_free_, in start order, except the
  /// dead ones that fold_before() dropped. Gap bookkeeping charges the
  /// host profiler's timeline memory tally (the busy intervals charge it
  /// via BusyTracker::IntervalStore).
  std::vector<Gap, CountingAllocator<Gap, AllocDomain::kTimeline>> gaps_;
  /// Gaps that ended by the last fold's watermark: the front of the
  /// start-ordered list, counted rather than stored.
  std::size_t dead_gaps_ = 0;
  std::uint64_t next_gap_seq_ = 0;
  BusyTracker busy_;
};

}  // namespace nvmooc
