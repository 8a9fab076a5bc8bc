// Unit tests for src/common: units, RNG, statistics, busy tracking,
// thread pool, string and table utilities.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/logging.hpp"
#include "common/random.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "common/units.hpp"

namespace nvmooc {
namespace {

// ---------- units -------------------------------------------------------

TEST(Units, TimeConstantsCompose) {
  EXPECT_EQ(kMicrosecond, 1000 * kNanosecond);
  EXPECT_EQ(kMillisecond, 1000 * kMicrosecond);
  EXPECT_EQ(kSecond, 1000 * kMillisecond);
}

TEST(Units, ToSecondsRoundTrip) {
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_seconds(to_seconds(Time{123456789})), Time{123456789});
}

TEST(Units, BandwidthMbps) {
  // 1 GB in 1 second = 1000 MB/s.
  EXPECT_DOUBLE_EQ(bandwidth_mbps(GB, kSecond), 1000.0);
  EXPECT_DOUBLE_EQ(bandwidth_mbps(GB, Time{}), 0.0);
  EXPECT_DOUBLE_EQ(bandwidth_mbps(GB, Time{-5}), 0.0);
}

// ---------- rng ---------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NormalHasRoughlyUnitVariance) {
  Rng rng(13);
  constexpr int kSamples = 20000;
  double sum = 0.0;
  double sum_squares = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    const double x = rng.next_normal();
    sum += x;
    sum_squares += x * x;
  }
  const double mean = sum / kSamples;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(sum_squares / kSamples - mean * mean, 1.0, 0.1);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.next_exponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.02);
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Rng rng(19);
  std::uint64_t low = 0;
  const std::uint64_t n = 1000;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t rank = rng.next_zipf(n, 1.2);
    EXPECT_LT(rank, n);
    if (rank < n / 10) ++low;
  }
  // Top decile should absorb well over its uniform 10% share.
  EXPECT_GT(low, 4000u);
}

// ---------- running stats ----------------------------------------------

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

// ---------- histogram ---------------------------------------------------

TEST(Histogram, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(-5.0);   // Clamps into bucket 0.
  h.add(0.5);
  h.add(9.99);
  h.add(25.0);   // Clamps into last bucket.
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(9), 2u);
}

TEST(Histogram, QuantileInterpolates) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(i + 0.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.5);
  EXPECT_NEAR(h.quantile(0.9), 90.0, 1.5);
  EXPECT_NEAR(h.quantile(0.0), 0.0, 1.0);
}

TEST(Histogram, EmptyQuantileIsZeroWithWarning) {
  Histogram h(5.0, 10.0, 5);
  // Empty percentile is defined (0, with a warning) rather than lo or UB.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
}

TEST(Histogram, DegenerateShapesClampToOneBucket) {
  // Zero buckets / inverted range used to underflow counts_.size() - 1
  // in add(); both now clamp to a single absorbing bucket.
  Histogram zero(0.0, 10.0, 0);
  zero.add(3.0);
  EXPECT_EQ(zero.total(), 1u);
  EXPECT_EQ(zero.bucket(0), 1u);
  Histogram inverted(10.0, 0.0, 4);
  inverted.add(3.0);
  inverted.add(100.0);
  EXPECT_EQ(inverted.total(), 2u);
}

// ---------- busy tracker -------------------------------------------------

TEST(BusyTracker, DisjointIntervalsSum) {
  BusyTracker t;
  t.add_interval(Time{0}, Time{10});
  t.add_interval(Time{20}, Time{30});
  EXPECT_EQ(t.busy_time(), Time{20});
}

TEST(BusyTracker, OverlapsUnion) {
  BusyTracker t;
  t.add_interval(Time{0}, Time{10});
  t.add_interval(Time{5}, Time{15});
  t.add_interval(Time{14}, Time{20});
  EXPECT_EQ(t.busy_time(), Time{20});
}

TEST(BusyTracker, OutOfOrderInsertion) {
  BusyTracker t;
  t.add_interval(Time{100}, Time{110});
  t.add_interval(Time{0}, Time{10});
  t.add_interval(Time{50}, Time{60});
  EXPECT_EQ(t.busy_time(), Time{30});
}

TEST(BusyTracker, IgnoresEmptyIntervals) {
  BusyTracker t;
  t.add_interval(Time{10}, Time{10});
  t.add_interval(Time{10}, Time{5});
  EXPECT_EQ(t.busy_time(), Time{0});
}

TEST(BusyTracker, CompactionPreservesTotals) {
  BusyTracker t;
  // Hundreds of thousands of disjoint intervals, adversarially spaced so
  // none merge.
  Time expected;
  for (std::int64_t i = 0; i < 200000; ++i) {
    t.add_interval(Time{i * 10}, Time{i * 10 + 3});
    expected += Time{3};
  }
  EXPECT_EQ(t.busy_time(), expected);
}

// Brute-force union: sort every span and coalesce overlapping or touching
// ones — the oracle for the always-sorted tracker.
std::vector<std::pair<Time, Time>> sort_and_coalesce(std::vector<std::pair<Time, Time>> spans) {
  std::sort(spans.begin(), spans.end());
  std::vector<std::pair<Time, Time>> out;
  for (const auto& span : spans) {
    if (span.second <= span.first) continue;
    if (!out.empty() && span.first <= out.back().second) {
      out.back().second = std::max(out.back().second, span.second);
    } else {
      out.push_back(span);
    }
  }
  return out;
}

Time span_total(const std::vector<std::pair<Time, Time>>& spans) {
  Time total;
  for (const auto& [start, end] : spans) total += end - start;
  return total;
}

std::vector<std::pair<Time, Time>> as_vector(const BusyTracker& tracker) {
  return {tracker.intervals().begin(), tracker.intervals().end()};
}

// Differential: random overlapping, touching, empty and out-of-order
// intervals — near the tail (the backfill case) and far behind it (the
// binary-search fallback) — against the brute-force union, and against
// it again once the second tracker's spans are added to the first. Each
// add reports whether the union grew.
TEST(BusyTracker, MatchesBruteForceUnion) {
  std::uint64_t state = 0x2545f4914f6cdd1dULL;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int round = 0; round < 40; ++round) {
    BusyTracker a;
    BusyTracker b;
    std::vector<std::pair<Time, Time>> spans_a;
    std::vector<std::pair<Time, Time>> spans_b;
    Time clock;
    for (int i = 0; i < 600; ++i) {
      const std::uint64_t roll = next() % 10;
      Time start;
      if (roll < 5) {
        clock += Time{static_cast<std::int64_t>(next() % 40)};
        start = clock;
      } else if (roll < 8) {
        start = std::max(Time{}, clock - Time{static_cast<std::int64_t>(next() % 200)});
      } else {
        start = Time{static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(clock.ps() + 1))};
      }
      const Time end = start + Time{static_cast<std::int64_t>(next() % 30)};
      const bool into_a = (round % 3 == 0) || next() % 2 == 0;
      if (into_a) {
        const Time before = a.busy_time();
        const bool grew = a.add_interval(start, end);
        ASSERT_EQ(grew, a.busy_time() != before) << "round " << round << " i " << i;
        spans_a.emplace_back(start, end);
      } else {
        b.add_interval(start, end);
        spans_b.emplace_back(start, end);
      }
      ASSERT_EQ(as_vector(a), sort_and_coalesce(spans_a)) << "round " << round << " i " << i;
    }
    EXPECT_EQ(a.busy_time(), span_total(sort_and_coalesce(spans_a)));
    EXPECT_EQ(b.busy_time(), span_total(sort_and_coalesce(spans_b)));

    std::vector<std::pair<Time, Time>> both = spans_a;
    both.insert(both.end(), spans_b.begin(), spans_b.end());
    const Time union_time = span_total(sort_and_coalesce(both));

    for (const auto& [start, end] : spans_b) a.add_interval(start, end);
    EXPECT_EQ(as_vector(a), sort_and_coalesce(both));
    EXPECT_EQ(a.busy_time(), union_time);
  }
}

TEST(BusyTracker, FoldSplitsTheStraddlingInterval) {
  BusyTracker t;
  t.add_interval(Time{0}, Time{10});
  t.add_interval(Time{20}, Time{30});
  t.add_interval(Time{40}, Time{50});
  t.fold_before(Time{25});
  // [0,10) and [20,25) fold; [25,30) and [40,50) stay live.
  EXPECT_EQ(as_vector(t), (std::vector<std::pair<Time, Time>>{{Time{25}, Time{30}},
                                                              {Time{40}, Time{50}}}));
  EXPECT_EQ(t.busy_time(), Time{30});
  // A watermark on a boundary or in an idle gap splits nothing.
  t.fold_before(Time{30});
  EXPECT_EQ(t.interval_count(), 1u);
  t.fold_before(Time{35});
  EXPECT_EQ(t.interval_count(), 1u);
  EXPECT_EQ(t.busy_time(), Time{30});
  // A later span touching the watermark starts a new live interval.
  t.add_interval(Time{35}, Time{40});
  EXPECT_EQ(as_vector(t), (std::vector<std::pair<Time, Time>>{{Time{35}, Time{50}}}));
  EXPECT_EQ(t.busy_time(), Time{35});
  t.fold_before(Time{60});
  EXPECT_EQ(t.interval_count(), 0u);
  EXPECT_EQ(t.busy_time(), Time{35});
}

// Differential: a tracker folded at random non-decreasing watermarks,
// with every later span starting at or after the last one (as the owners
// of the busy unions guarantee), keeps the unfolded tracker's busy time
// exactly, and its live list is the unfolded list cut at the watermark.
TEST(BusyTracker, FoldedMatchesUnfolded) {
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int round = 0; round < 20; ++round) {
    BusyTracker folded;
    BusyTracker unfolded;
    std::vector<std::pair<Time, Time>> spans;
    Time clock;
    Time watermark;
    int folds = 0;
    for (int i = 0; i < 2000; ++i) {
      clock += Time{static_cast<std::int64_t>(next() % 20)};
      // Backfills reach behind the clock, but never behind the watermark.
      Time start = clock - Time{static_cast<std::int64_t>(next() % 150)};
      start = std::max(start, watermark);
      const Time end = start + Time{static_cast<std::int64_t>(next() % 30)};
      folded.add_interval(start, end);
      unfolded.add_interval(start, end);
      spans.emplace_back(start, end);
      if (next() % 16 == 0) {
        watermark = std::max(watermark, clock - Time{static_cast<std::int64_t>(next() % 100)});
        folded.fold_before(watermark);
        ++folds;
        ASSERT_EQ(folded.busy_time(), unfolded.busy_time()) << "round " << round << " i " << i;
        std::vector<std::pair<Time, Time>> live;
        for (auto [span_start, span_end] : as_vector(unfolded)) {
          if (span_end <= watermark) continue;
          live.emplace_back(std::max(span_start, watermark), span_end);
        }
        ASSERT_EQ(as_vector(folded), live) << "round " << round << " i " << i;
      }
    }
    EXPECT_GT(folds, 50);
    EXPECT_LT(folded.interval_count(), unfolded.interval_count());
    EXPECT_EQ(folded.busy_time(), span_total(sort_and_coalesce(spans)));
  }
}

// ---------- thread pool --------------------------------------------------

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { ++counter; });
  pool.wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRange) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(2);
  pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // Pool remains usable afterwards.
  std::atomic<int> counter{0};
  pool.submit([&] { ++counter; });
  pool.wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPool, NestedSubmission) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  pool.submit([&] {
    for (int i = 0; i < 10; ++i) pool.submit([&] { ++counter; });
  });
  pool.wait();
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPool, ParallelForBodyExceptionDrainsBeforeThrow) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 64,
                        [&](std::size_t lo, std::size_t) {
                          if (lo == 0) throw std::runtime_error("chunk failed");
                        }),
      std::runtime_error);
  // Contract: the exception escapes only once every queued chunk has
  // finished, so no worker still references the destroyed body closure
  // and the pool is immediately reusable.
  std::atomic<int> counter{0};
  pool.parallel_for(0, 8, [&](std::size_t lo, std::size_t hi) {
    counter += static_cast<int>(hi - lo);
  });
  EXPECT_EQ(counter.load(), 8);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&] { ++counter; });
    // No wait(): the destructor must run every queued task, then join.
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, DestructorDropsUnobservedTaskError) {
  {
    ThreadPool pool(2);
    pool.submit([] { throw std::runtime_error("never observed"); });
    // Destroying without wait() drops the parked error by design;
    // anything else (rethrow, terminate) fails this test hard.
  }
  SUCCEED();
}

// ---------- strings ------------------------------------------------------

TEST(StringUtil, Format) {
  EXPECT_EQ(format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(format("%.2f", 3.14159), "3.14");
}

TEST(StringUtil, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
  EXPECT_EQ(with_commas(-1234567), "-1,234,567");
}

TEST(StringUtil, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512B");
  EXPECT_EQ(human_bytes(4096), "4KiB");
  EXPECT_EQ(human_bytes(3ULL * 1024 * 1024 * 1024), "3GiB");
}

// ---------- table --------------------------------------------------------

TEST(Table, RendersAlignedColumns) {
  Table table({"name", "v1", "v2"});
  table.add_row({"alpha", "1", "22"});
  table.add_row_numeric("beta", {3.14159, 2.71828}, 2);
  const std::string out = table.render();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_NE(out.find("2.72"), std::string::npos);
  EXPECT_NE(out.find("beta"), std::string::npos);
}

TEST(Table, ShortRowsPadded) {
  Table table({"a", "b"});
  table.add_row({"only"});
  EXPECT_NE(table.render().find("only"), std::string::npos);
}

// ---------- logging ------------------------------------------------------

TEST(Logging, LevelGate) {
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // No crash formatting below the gate.
  NVMOOC_LOG_DEBUG("dropped %d", 1);
  NVMOOC_LOG_ERROR("kept %d", 2);
  set_log_level(LogLevel::kWarn);
}

}  // namespace
}  // namespace nvmooc
