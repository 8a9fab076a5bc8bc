// Unit tests for trace records, statistics, serialisation and synthetic
// generators.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "trace/synthetic.hpp"
#include "trace/trace.hpp"

namespace nvmooc {
namespace {

TEST(Trace, ExtentCoversFarthestByte) {
  Trace trace;
  trace.add(NvmOp::kRead, Bytes{}, 4 * KiB);
  trace.add(NvmOp::kRead, MiB, 64 * KiB);
  EXPECT_EQ(trace.extent(), MiB + 64 * KiB);
}

TEST(Trace, StatsComputeMixAndSizes) {
  Trace trace;
  trace.add(NvmOp::kRead, Bytes{}, 8 * KiB);
  trace.add(NvmOp::kRead, 8 * KiB, 8 * KiB);   // Sequential.
  trace.add(NvmOp::kWrite, 64 * KiB, 4 * KiB);  // Jump.
  const TraceStats stats = trace.stats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.total_bytes, 20 * KiB);
  EXPECT_EQ(stats.read_bytes, 16 * KiB);
  EXPECT_EQ(stats.write_bytes, 4 * KiB);
  EXPECT_NEAR(stats.read_fraction, 0.8, 1e-12);
  EXPECT_NEAR(stats.sequentiality, 0.5, 1e-12);  // 1 of 2 transitions.
  EXPECT_EQ(stats.min_request, 4 * KiB);
  EXPECT_EQ(stats.max_request, 8 * KiB);
}

TEST(Trace, EmptyStatsAreZero) {
  const TraceStats stats = Trace{}.stats();
  EXPECT_EQ(stats.requests, 0u);
  EXPECT_EQ(stats.total_bytes, Bytes{0});
}

TEST(Trace, SaveLoadRoundTrip) {
  Trace trace;
  trace.add(NvmOp::kRead, Bytes{123}, Bytes{456}, Time{789});
  trace.add(NvmOp::kWrite, 1 * GiB, 2 * MiB);
  const std::string path = ::testing::TempDir() + "/trace_roundtrip.txt";
  trace.save(path);
  const Trace loaded = Trace::load(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].op, NvmOp::kRead);
  EXPECT_EQ(loaded[0].offset, Bytes{123});
  EXPECT_EQ(loaded[0].size, Bytes{456});
  EXPECT_EQ(loaded[0].not_before, Time{789});
  EXPECT_EQ(loaded[1].op, NvmOp::kWrite);
  EXPECT_EQ(loaded[1].offset, GiB);
  std::remove(path.c_str());
}

TEST(Trace, LoadMissingFileThrows) {
  EXPECT_THROW(Trace::load("/nonexistent/path/x.trace"), std::runtime_error);
}

/// Writes `text` to a temp trace file, loads it, and returns the load
/// error message ("" when the load succeeded).
std::string load_error(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::FILE* file = std::fopen(path.c_str(), "w");
  EXPECT_NE(file, nullptr);
  std::fputs(text.c_str(), file);
  std::fclose(file);
  std::string error;
  try {
    static_cast<void>(Trace::load(path));
  } catch (const std::runtime_error& e) {
    error = e.what();
  }
  std::remove(path.c_str());
  return error;
}

TEST(Trace, LoadRejectsMalformedLine) {
  const std::string error = load_error(
      "malformed.trace", "R 0 4096 0\nR 4096 4096 0\nX garbage\nR 8192 4096 0\n");
  EXPECT_NE(error.find("malformed.trace:3:"), std::string::npos) << error;
  EXPECT_NE(error.find("2 field(s)"), std::string::npos) << error;
}

TEST(Trace, LoadRejectsUnknownOp) {
  const std::string error = load_error("unknown_op.trace", "R 0 4096 0\nQ 0 4096 0\n");
  EXPECT_NE(error.find("unknown_op.trace:2:"), std::string::npos) << error;
  EXPECT_NE(error.find("bad op 'Q'"), std::string::npos) << error;
}

TEST(Trace, LoadRejectsTrailingGarbage) {
  EXPECT_NE(load_error("trailing.trace", "R 0 4096 0 1 extra\n").find(
                "trailing.trace:1: trailing garbage 'extra'"),
            std::string::npos);
  EXPECT_NE(load_error("bad_barrier.trace", "W 0 4096 0 junk\n").find(
                "bad_barrier.trace:1: bad barrier 'junk'"),
            std::string::npos);
  EXPECT_NE(load_error("bad_size.trace", "R 0 4k 0\n").find(
                "bad_size.trace:1: bad size '4k'"),
            std::string::npos);
}

TEST(Trace, LoadAcceptsBlankLinesAndOptionalBarrier) {
  const std::string path = ::testing::TempDir() + "/blank_lines.trace";
  std::FILE* file = std::fopen(path.c_str(), "w");
  ASSERT_NE(file, nullptr);
  std::fputs("R 0 4096 0\n\n   \nW 4096 512 7 1\n", file);
  std::fclose(file);
  const Trace loaded = Trace::load(path);
  std::remove(path.c_str());
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_FALSE(loaded[0].barrier);
  EXPECT_EQ(loaded[1].op, NvmOp::kWrite);
  EXPECT_EQ(loaded[1].size, Bytes{512});
  EXPECT_EQ(loaded[1].not_before, Time{7});
  EXPECT_TRUE(loaded[1].barrier);
}

// ---------- synthetic generators -------------------------------------------

TEST(Synthetic, SequentialIsFullySequential) {
  const Trace trace = sequential_read_trace(MiB, 64 * KiB);
  EXPECT_EQ(trace.size(), 16u);
  EXPECT_DOUBLE_EQ(trace.stats().sequentiality, 1.0);
  EXPECT_EQ(trace.stats().total_bytes, MiB);
}

TEST(Synthetic, SequentialHandlesRemainder) {
  const Trace trace = sequential_read_trace(100 * KiB, 64 * KiB);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[1].size, 36 * KiB);
}

TEST(Synthetic, RandomStaysInExtent) {
  Rng rng(5);
  const Trace trace = random_read_trace(MiB, 4 * KiB, 500, rng);
  EXPECT_EQ(trace.size(), 500u);
  for (const PosixRequest& r : trace.requests()) {
    EXPECT_LE(r.offset + r.size, MiB);
  }
  // Random access is far from sequential.
  EXPECT_LT(trace.stats().sequentiality, 0.05);
}

TEST(Synthetic, StridedAdvancesByStride) {
  const Trace trace = strided_read_trace(GiB, 4 * KiB, 1 * MiB, 10);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_EQ(trace[i].offset - trace[i - 1].offset, MiB);
  }
}

}  // namespace
}  // namespace nvmooc
