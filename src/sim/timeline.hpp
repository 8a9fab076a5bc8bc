// Reservation timeline: the contention model for serially-occupied
// resources (channel buses, die planes, host links).
//
// A transaction asks to occupy the resource for `duration` starting no
// earlier than `earliest`. The timeline grants the first gap that fits
// (backfilling earlier holes when allowed) and returns the granted
// [start, end). The difference start - earliest is the contention
// (queueing) time the caller attributes to this resource.
// The timeline is a scheduler only: it keeps the time it is next free
// and its idle gaps, and no busy time. Its owner (the SSD hardware, a
// DmaEngine) adds each grant to the busy unions it reports and tells the
// probe once, since it knows what a reservation was for.
//
// Watermark invariant: an owner that knows no later reservation has
// `earliest` below some time W (the replay engine's issue time, which
// never decreases) may call fold_before(W). Nothing before W can change
// again: no grant starts there, and an idle gap that ends by W can never
// fit one. So those dead gaps shrink to a count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/alloc_counter.hpp"
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

  /// Reserves `duration` starting at or after `earliest`. A grant past
  /// the tail is a few assignments; only one that can end by next_free()
  /// on a backfilling timeline searches the gaps.
  Reservation reserve(Time earliest, Time duration) {
    if (duration <= Time{}) {
      const Time at = std::max(earliest, Time{0});
      return {at, at, Time{}};
    }
    // Every gap ends by next_free_, so none fits a grant that cannot end
    // by then.
    if (backfill_ && earliest + duration <= next_free_) return scan_gaps(earliest, duration);
    return append(earliest, duration);
  }

  /// Drops the gaps that end by `watermark` into the dead-gap count.
  /// Every later reserve() must have `earliest >= watermark`; its grant
  /// is then the same as on an unfolded timeline.
  void fold_before(Time watermark);

  [[nodiscard]] Time next_free() const { return next_free_; }

 private:
  struct Gap {
    Time start;
    Time end;
    /// Creation order; the grant goes to the lowest that fits.
    std::uint64_t seq = 0;
  };

  /// Grants the oldest-created gap that fits, or appends if none does.
  Reservation scan_gaps(Time earliest, Time duration);

  /// Grants at the tail, opening a gap if the grant starts after it.
  Reservation append(Time earliest, Time duration) {
    const Time start = std::max(earliest, next_free_);
    if (backfill_ && start > next_free_) open_gap(start);
    next_free_ = start + duration;
    return {start, next_free_, start - earliest};
  }

  /// Records the idle gap [next_free_, start) and applies the cap.
  void open_gap(Time start);

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
  /// host profiler's timeline memory tally, as the owners' busy unions do.
  std::vector<Gap, CountingAllocator<Gap, AllocDomain::kTimeline>> gaps_;
  /// Gaps that ended by the last fold's watermark: the front of the
  /// start-ordered list, counted rather than stored.
  std::size_t dead_gaps_ = 0;
  std::uint64_t next_gap_seq_ = 0;
};

}  // namespace nvmooc
