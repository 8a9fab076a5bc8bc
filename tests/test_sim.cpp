// Unit tests for the reservation timeline (incl. backfill).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/probe.hpp"
#include "common/stats.hpp"
#include "interval_counter.hpp"
#include "sim/timeline.hpp"

namespace nvmooc {
namespace {

// Deterministic splitmix64 stream for the randomized tests below.
struct SplitMix {
  std::uint64_t state;
  std::uint64_t operator()() {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
};

/// Sorts spans and joins the ones that overlap or touch.
std::vector<std::pair<Time, Time>> coalesce(std::vector<std::pair<Time, Time>> spans) {
  std::sort(spans.begin(), spans.end());
  std::vector<std::pair<Time, Time>> out;
  for (const auto& span : spans) {
    if (!out.empty() && span.first <= out.back().second) {
      out.back().second = std::max(out.back().second, span.second);
    } else {
      out.push_back(span);
    }
  }
  return out;
}

/// The linear-scan gap list Timeline used before its gaps were indexed:
/// gaps in insertion order (split pieces appended, left first), the first
/// that fits wins, and a new tail gap past `max_gaps` drops the gap with
/// the earliest start. Kept as the oracle for the indexed search.
class LinearScanTimeline {
 public:
  LinearScanTimeline(bool backfill, std::size_t max_gaps)
      : backfill_(backfill), max_gaps_(max_gaps) {}

  Reservation reserve(Time earliest, Time duration) {
    Reservation grant;
    if (duration <= Time{}) {
      grant.start = std::max(earliest, Time{0});
      grant.end = grant.start;
      return grant;
    }
    if (backfill_) {
      for (std::size_t i = 0; i < gaps_.size(); ++i) {
        const Time start = std::max(gaps_[i].first, earliest);
        if (start + duration <= gaps_[i].second) {
          grant.start = start;
          grant.end = start + duration;
          grant.waited = start - earliest;
          record(grant);
          const std::pair<Time, Time> old = gaps_[i];
          gaps_.erase(gaps_.begin() + static_cast<std::ptrdiff_t>(i));
          if (old.first < grant.start) gaps_.emplace_back(old.first, grant.start);
          if (grant.end < old.second) gaps_.emplace_back(grant.end, old.second);
          return grant;
        }
      }
    }
    const Time start = std::max(earliest, next_free_);
    grant.start = start;
    grant.end = start + duration;
    grant.waited = start - earliest;
    record(grant);
    if (backfill_ && start > next_free_) {
      gaps_.emplace_back(next_free_, start);
      if (gaps_.size() > max_gaps_) gaps_.erase(std::min_element(gaps_.begin(), gaps_.end()));
    }
    next_free_ = std::max(next_free_, grant.end);
    return grant;
  }

  Time next_free() const { return next_free_; }
  std::uint64_t reservation_count() const { return grants_.size(); }

  /// Every grant, sorted and coalesced (touching spans join).
  std::vector<std::pair<Time, Time>> busy_intervals() const { return coalesce(grants_); }

  Time busy_time() const {
    Time total;
    for (const auto& [start, end] : busy_intervals()) total += end - start;
    return total;
  }

 private:
  void record(const Reservation& grant) { grants_.emplace_back(grant.start, grant.end); }

  bool backfill_;
  std::size_t max_gaps_;
  Time next_free_;
  std::vector<std::pair<Time, Time>> gaps_;
  std::vector<std::pair<Time, Time>> grants_;
};

// ---------- timeline -----------------------------------------------------

TEST(Timeline, FifoReservationsQueue) {
  Timeline timeline(false);
  const Reservation a = timeline.reserve(Time{0}, Time{100});
  EXPECT_EQ(a.start, Time{0});
  EXPECT_EQ(a.end, Time{100});
  EXPECT_EQ(a.waited, Time{0});

  const Reservation b = timeline.reserve(Time{10}, Time{50});
  EXPECT_EQ(b.start, Time{100});  // Queued behind a.
  EXPECT_EQ(b.waited, Time{90});
}

TEST(Timeline, GapNotUsedWithoutBackfill) {
  Timeline timeline(false);
  timeline.reserve(Time{1000}, Time{100});  // Leaves [0,1000) idle.
  const Reservation late = timeline.reserve(Time{0}, Time{10});
  EXPECT_EQ(late.start, Time{1100});
}

TEST(Timeline, BackfillUsesGap) {
  Timeline timeline(true);
  timeline.reserve(Time{1000}, Time{100});  // Gap [0,1000).
  const Reservation fill = timeline.reserve(Time{0}, Time{10});
  EXPECT_EQ(fill.start, Time{0});
  EXPECT_EQ(fill.waited, Time{0});
}

TEST(Timeline, BackfillSplitsGap) {
  Timeline timeline(true);
  timeline.reserve(Time{1000}, Time{100});
  timeline.reserve(Time{400}, Time{100});  // Inside the gap: [400,500).
  // Remaining sub-gaps [0,400) and [500,1000) both usable.
  EXPECT_EQ(timeline.reserve(Time{0}, Time{400}).start, Time{0});
  EXPECT_EQ(timeline.reserve(Time{0}, Time{500}).start, Time{500});
}

TEST(Timeline, BackfillRespectsEarliest) {
  Timeline timeline(true);
  timeline.reserve(Time{1000}, Time{100});
  const Reservation r = timeline.reserve(Time{600}, Time{200});
  EXPECT_EQ(r.start, Time{600});  // Fits the gap tail [600,800).
}

// A bare Timeline keeps no busy time and tells the probe nothing: its
// owner unions each grant and reports each reservation, knowing what it
// was for.
TEST(Timeline, BusyTimeAccumulates) {
  IntervalCounter counter;
  const probe::Scoped listen(probe::Slot::kLatency, &counter);
  Timeline timeline(false);
  BusyTracker busy;
  for (const Time earliest : {Time{0}, Time{20}}) {
    const Reservation grant = timeline.reserve(earliest, Time{10});
    busy.add_interval(grant.start, grant.end);
  }
  EXPECT_EQ(busy.busy_time(), Time{20});
  EXPECT_EQ(timeline.next_free(), Time{30});
  EXPECT_EQ(counter.intervals, 0u);
}

TEST(Timeline, ZeroDurationIsFree) {
  Timeline timeline(false);
  timeline.reserve(Time{0}, Time{100});
  const Reservation r = timeline.reserve(Time{5}, Time{0});
  EXPECT_EQ(r.start, Time{5});
  EXPECT_EQ(r.end, Time{5});
}

// Property: a dense stream of FIFO reservations is gap-free and ordered.
TEST(Timeline, PropertyDenseStreamIsContiguous) {
  Timeline timeline(false);
  Time expected_start;
  for (int i = 0; i < 1000; ++i) {
    const Reservation r = timeline.reserve(Time{0}, Time{7});
    EXPECT_EQ(r.start, expected_start);
    expected_start = r.end;
  }
  EXPECT_EQ(timeline.next_free(), Time{7000});
}

// Property: over a pseudo-random request stream — with and without
// backfill — every grant satisfies the reservation invariants:
//   * start >= earliest (never scheduled before the request is ready),
//   * waited == start - earliest (the wait accounting is exact),
//   * end == start + duration,
//   * no two granted intervals overlap (one resource, one user at a time).
TEST(Timeline, PropertyGrantedIntervalsHoldInvariants) {
  for (const bool backfill : {false, true}) {
    Timeline timeline(backfill);
    // Deterministic splitmix64-style stream: arrival jitter + mixed sizes.
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    const auto next = [&state] {
      state += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = state;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return z ^ (z >> 31);
    };

    std::vector<std::pair<Time, Time>> granted;
    Time arrival;
    for (int i = 0; i < 2000; ++i) {
      arrival += Time{static_cast<std::int64_t>(next() % 50)};
      const Time duration{1 + static_cast<std::int64_t>(next() % 40)};
      const Reservation r = timeline.reserve(arrival, duration);
      ASSERT_GE(r.start, arrival) << "granted before ready (i=" << i << ")";
      ASSERT_EQ(r.waited, r.start - arrival);
      ASSERT_EQ(r.end, r.start + duration);
      granted.emplace_back(r.start, r.end);
    }

    std::sort(granted.begin(), granted.end());
    for (std::size_t i = 1; i < granted.size(); ++i) {
      ASSERT_LE(granted[i - 1].second, granted[i].first)
          << "overlapping grants [" << granted[i - 1].first << ", "
          << granted[i - 1].second << ") and [" << granted[i].first << ", "
          << granted[i].second << ") with backfill=" << backfill;
    }
  }
}

// Where reserve() would grant now, asked of a copy so nothing is booked.
Time grant_start(Timeline timeline, Time earliest, Time duration) {
  return timeline.reserve(earliest, duration).start;
}

// The cap on the gap list binds only when a tail reservation opens a new
// gap, and then drops one gap (the earliest); backfill splits grow the list
// past the cap unchecked. Pinned because answers depend on it.
TEST(Timeline, GapCapBindsOnlyOnTailGrowth) {
  Timeline timeline(true, 2);
  timeline.reserve(Time{1000}, Time{100});  // Gap [0,1000); busy to 1100.
  timeline.reserve(Time{100}, Time{10});    // Split: [0,100) [110,1000).
  timeline.reserve(Time{200}, Time{10});    // Split: ... [110,200) [210,1000).
  // Three gaps, over the cap of two, and every one still usable.
  EXPECT_EQ(grant_start(timeline, Time{0}, Time{50}), Time{0});
  EXPECT_EQ(grant_start(timeline, Time{100}, Time{50}), Time{110});
  EXPECT_EQ(grant_start(timeline, Time{200}, Time{50}), Time{210});
  // A new tail gap [1100,2000) makes four; only the earliest is dropped.
  timeline.reserve(Time{2000}, Time{10});
  EXPECT_EQ(grant_start(timeline, Time{0}, Time{50}), Time{110});
  EXPECT_EQ(grant_start(timeline, Time{200}, Time{50}), Time{210});
  // Another tail gap [2010,3000): [110,200) goes, three gaps remain.
  timeline.reserve(Time{3000}, Time{10});
  EXPECT_EQ(grant_start(timeline, Time{0}, Time{50}), Time{210});
  EXPECT_EQ(grant_start(timeline, Time{1100}, Time{50}), Time{1100});
  EXPECT_EQ(grant_start(timeline, Time{2010}, Time{50}), Time{2010});
}

// Differential: the indexed gap search grants exactly what the linear
// scan it replaced grants, over seeded streams that split gaps past the
// cap, with and without backfill. With folding on, fold_before runs at
// random non-decreasing watermarks (every later `earliest` is held at or
// above the last one, as the replay engine guarantees), so dead gaps fill
// the cap and drop-oldest takes them first; the grants must not move.
// A busy union fed those grants and folded at the same watermarks, as
// the timelines' owners keep one, sums to the reference's busy time.
TEST(Timeline, IndexedGapSearchMatchesLinearScan) {
  for (const bool backfill : {false, true}) {
    for (const std::size_t max_gaps : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                       std::size_t{64}}) {
      for (const bool fold : {false, true}) {
        for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
          SCOPED_TRACE(::testing::Message() << "backfill=" << backfill << " max_gaps="
                                            << max_gaps << " fold=" << fold
                                            << " seed=" << seed);
          std::uint64_t granted = 0;
          Timeline timeline(backfill, max_gaps);
          LinearScanTimeline reference(backfill, max_gaps);
          SplitMix next{seed * 0x51ed2701ULL};
          Time clock;
          Time watermark;
          BusyTracker busy;
          for (int i = 0; i < 4000; ++i) {
            // Mostly forward-moving arrivals with occasional long jumps
            // (new tail gaps) and look-backs (backfill into old gaps).
            const std::uint64_t roll = next() % 100;
            Time earliest;
            if (roll < 10) {
              clock += Time{static_cast<std::int64_t>(200 + next() % 2000)};
              earliest = clock;
            } else if (roll < 45) {
              const Time back{static_cast<std::int64_t>(next() % 3000)};
              earliest = std::max(Time{}, clock - back);
            } else {
              clock += Time{static_cast<std::int64_t>(next() % 30)};
              earliest = clock;
            }
            earliest = std::max(earliest, watermark);
            const Time duration{static_cast<std::int64_t>(next() % 60)};
            const Reservation got = timeline.reserve(earliest, duration);
            const Reservation want = reference.reserve(earliest, duration);
            ASSERT_EQ(got.start, want.start) << "reserve " << i;
            ASSERT_EQ(got.end, want.end) << "reserve " << i;
            ASSERT_EQ(got.waited, want.waited) << "reserve " << i;
            ASSERT_EQ(timeline.next_free(), reference.next_free()) << "reserve " << i;
            if (got.end > got.start) ++granted;
            busy.add_interval(got.start, got.end);
            if (fold && next() % 8 == 0) {
              const Time behind{static_cast<std::int64_t>(next() % 4000)};
              watermark = std::max(watermark, clock - behind);
              timeline.fold_before(watermark);
              busy.fold_before(watermark);
              ASSERT_EQ(busy.busy_time(), reference.busy_time()) << "fold " << i;
            }
          }
          EXPECT_EQ(granted, reference.reservation_count());
          EXPECT_EQ(busy.busy_time(), reference.busy_time());
        }
      }
    }
  }
}

}  // namespace
}  // namespace nvmooc
