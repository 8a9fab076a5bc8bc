// Unit tests for the reservation timeline (incl. backfill).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/timeline.hpp"

namespace nvmooc {
namespace {

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

TEST(Timeline, BusyTimeAccumulates) {
  Timeline timeline(false);
  timeline.reserve(Time{0}, Time{10});
  timeline.reserve(Time{20}, Time{10});
  EXPECT_EQ(timeline.busy().busy_time(), Time{20});
  EXPECT_EQ(timeline.reservation_count(), 2u);
}

TEST(Timeline, ZeroDurationIsFree) {
  Timeline timeline(false);
  timeline.reserve(Time{0}, Time{100});
  const Reservation r = timeline.reserve(Time{5}, Time{0});
  EXPECT_EQ(r.start, Time{5});
  EXPECT_EQ(r.end, Time{5});
}

TEST(Timeline, PeekDoesNotReserve) {
  Timeline timeline(false);
  timeline.reserve(Time{0}, Time{100});
  EXPECT_EQ(timeline.peek(Time{0}, Time{10}), Time{100});
  EXPECT_EQ(timeline.peek(Time{0}, Time{10}), Time{100});  // Unchanged.
  EXPECT_EQ(timeline.next_free(), Time{100});
}

TEST(Timeline, ResetRestoresEmpty) {
  Timeline timeline(true);
  timeline.reserve(Time{100}, Time{50});
  timeline.reset();
  EXPECT_EQ(timeline.next_free(), Time{0});
  EXPECT_EQ(timeline.reserve(Time{0}, Time{10}).start, Time{0});
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
  EXPECT_EQ(timeline.busy().busy_time(), Time{7000});
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
      const Time peeked = timeline.peek(arrival, duration);
      const Reservation r = timeline.reserve(arrival, duration);
      ASSERT_GE(r.start, arrival) << "granted before ready (i=" << i << ")";
      ASSERT_EQ(r.waited, r.start - arrival);
      ASSERT_EQ(r.end, r.start + duration);
      // peek() promised a slot no later than what reserve() granted.
      ASSERT_LE(peeked, r.start);
      granted.emplace_back(r.start, r.end);
    }

    std::sort(granted.begin(), granted.end());
    for (std::size_t i = 1; i < granted.size(); ++i) {
      ASSERT_LE(granted[i - 1].second, granted[i].first)
          << "overlapping grants [" << granted[i - 1].first << ", "
          << granted[i - 1].second << ") and [" << granted[i].first << ", "
          << granted[i].second << ") with backfill=" << backfill;
    }
    EXPECT_EQ(timeline.reservation_count(), 2000u);
  }
}

}  // namespace
}  // namespace nvmooc
