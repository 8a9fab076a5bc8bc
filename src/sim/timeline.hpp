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
  /// pieces of a split gap count as new). The gap list is one vector in
  /// two segments, each in start order: first the gaps shorter than
  /// split_, the shortest duration any scan has asked for, then every
  /// other gap. A fitting gap is at least as long as the duration, so a
  /// scan lowers split_ to its duration if it is shorter (moving the gaps
  /// that are no longer short into the long segment) and then searches
  /// the long segment only. Gaps are disjoint, so within a segment their
  /// ends ascend too: only the gaps at the back that end at or after
  /// `earliest + duration` can fit, and the scan walks back over just
  /// those.
  explicit Timeline(bool backfill = false, std::uint32_t max_gaps = 64);

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

  /// Lowers split_ to `duration` and moves the gaps that are no longer
  /// short into the long segment.
  void lower_split(Time duration);

  /// Puts `gap` into the short segment, in start order.
  void insert_short(const Gap& gap);

  [[nodiscard]] bool is_short(const Gap& gap) const { return gap.end - gap.start < split_; }

  Time next_free_;
  /// Gaps shorter than this go to the short segment: the shortest
  /// duration scanned so far, so no scan can use them.
  Time split_ = Time::max();
  /// Disjoint idle gaps before next_free_: the short segment, then the
  /// long one, each in start order, except the dead ones that
  /// fold_before() dropped. Gap bookkeeping charges the host profiler's
  /// timeline memory tally, as the owners' busy unions do.
  std::vector<Gap, CountingAllocator<Gap, AllocDomain::kTimeline>> gaps_;
  std::uint64_t next_gap_seq_ = 0;
  std::uint32_t max_gaps_;
  /// Gaps that ended by the last fold's watermark: the earliest gaps,
  /// counted rather than stored.
  std::uint32_t dead_gaps_ = 0;
  /// Size of the short segment, gaps_[0, short_gaps_).
  std::uint32_t short_gaps_ = 0;
  bool backfill_;
};

// Engine construction builds one Timeline per channel, port and plane.
static_assert(sizeof(Timeline) <= 64);

}  // namespace nvmooc
