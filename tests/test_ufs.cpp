// Unit tests for UFS: the dataset is one extent and requests pass through
// it whole.
#include <gtest/gtest.h>

#include "ufs/ufs.hpp"

namespace nvmooc {
namespace {

TEST(Ufs, PassThroughKeepsRequestWhole) {
  UfsConfig config;
  config.capacity = 4 * GiB;
  UnifiedFileSystem ufs(config);
  ufs.provision_dataset(GiB);
  const auto out = ufs.submit({NvmOp::kRead, Bytes{}, 16 * MiB, Time{}});
  ASSERT_EQ(out.size(), 1u);  // No splitting, no metadata, no journal.
  EXPECT_EQ(out[0].size, 16 * MiB);
  EXPECT_FALSE(out[0].internal);
  EXPECT_FALSE(out[0].barrier);
}

TEST(Ufs, RequestAcrossWindowBoundaryStaysWhole) {
  // 120 MiB + 16 MiB crosses the 128 MiB window: still one request, at
  // the same device offset (the dataset extent starts at 0).
  UnifiedFileSystem ufs;
  ufs.provision_dataset(GiB);
  const auto out = ufs.submit({NvmOp::kWrite, 120 * MiB, 16 * MiB, Time{}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].op, NvmOp::kWrite);
  EXPECT_EQ(out[0].offset, 120 * MiB);
  EXPECT_EQ(out[0].size, 16 * MiB);
}

TEST(Ufs, BarrierPassesThrough) {
  UnifiedFileSystem ufs;
  ufs.provision_dataset(64 * MiB);
  PosixRequest request{NvmOp::kWrite, 8 * MiB, 4 * MiB, Time{}};
  request.barrier = true;
  const auto out = ufs.submit(request);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_TRUE(out[0].barrier);
}

TEST(Ufs, SubmitWithoutDatasetThrows) {
  UnifiedFileSystem ufs;
  EXPECT_THROW(ufs.submit({NvmOp::kRead, Bytes{}, 4 * KiB, Time{}}), std::logic_error);
}

TEST(Ufs, RangePastDatasetThrows) {
  UnifiedFileSystem ufs;
  ufs.provision_dataset(MiB);
  EXPECT_NO_THROW(ufs.submit({NvmOp::kRead, 512 * KiB, 512 * KiB, Time{}}));
  EXPECT_THROW(ufs.submit({NvmOp::kRead, 512 * KiB, MiB, Time{}}), std::out_of_range);
}

TEST(Ufs, BehaviorHasNoOverheadTraffic) {
  UnifiedFileSystem ufs;
  EXPECT_EQ(ufs.behavior().metadata_interval, Bytes{0});
  EXPECT_EQ(ufs.behavior().journal_interval, Bytes{0});
  EXPECT_EQ(ufs.behavior().name, "UFS");
  // Far deeper application-managed window than kernel readahead.
  EXPECT_GE(ufs.behavior().queue_depth, 4u);
  EXPECT_GE(ufs.behavior().max_request, 16 * MiB);
}

TEST(Ufs, DatasetLargerThanDeviceThrows) {
  UfsConfig config;
  config.capacity = 16 * MiB;
  UnifiedFileSystem ufs(config);
  EXPECT_THROW(ufs.provision_dataset(GiB), std::runtime_error);
}

TEST(Ufs, DatasetFillsDeviceExactly) {
  // The dataset is rounded up to 4 MiB extents: 16 MiB fits a 16 MiB
  // device, one byte more needs a fifth extent.
  UfsConfig config;
  config.capacity = 16 * MiB;
  UnifiedFileSystem fits(config);
  EXPECT_NO_THROW(fits.provision_dataset(16 * MiB));
  UnifiedFileSystem overflows(config);
  EXPECT_THROW(overflows.provision_dataset(16 * MiB + Bytes{1}), std::runtime_error);
}

}  // namespace
}  // namespace nvmooc
