// Unit + property tests for the behavioural file-system models.
#include <gtest/gtest.h>

#include "fs/filesystem.hpp"
#include "fs/presets.hpp"

namespace nvmooc {
namespace {

FsBehavior plain_behavior(Bytes max_request = 64 * KiB) {
  FsBehavior fs;
  fs.name = "plain";
  fs.max_request = max_request;
  fs.metadata_interval = Bytes{};
  fs.journal_interval = Bytes{};
  return fs;
}

TEST(FileSystem, SplitsOnMaxRequestBoundaries) {
  FileSystemModel fs(plain_behavior(64 * KiB));
  fs.mount(GiB);
  const auto out = fs.submit({NvmOp::kRead, Bytes{}, 256 * KiB, Time{}});
  ASSERT_EQ(out.size(), 4u);
  Bytes cursor;
  for (const BlockRequest& r : out) {
    EXPECT_EQ(r.offset, cursor);
    EXPECT_EQ(r.size, 64 * KiB);
    cursor += r.size;
  }
}

TEST(FileSystem, UnalignedRequestSplitsAtBoundary) {
  FileSystemModel fs(plain_behavior(64 * KiB));
  fs.mount(GiB);
  // Starts mid-segment: first piece runs to the next 64 KiB boundary.
  const auto out = fs.submit({NvmOp::kRead, 48 * KiB, 64 * KiB, Time{}});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].size, 16 * KiB);
  EXPECT_EQ(out[1].size, 48 * KiB);
}

TEST(FileSystem, PreservesTotalBytes) {
  FileSystemModel fs(plain_behavior(32 * KiB));
  fs.mount(GiB);
  const auto out = fs.submit({NvmOp::kRead, Bytes{12345}, Bytes{1000000}, Time{}});
  Bytes total;
  for (const BlockRequest& r : out) total += r.size;
  EXPECT_EQ(total, Bytes{1000000});
}

TEST(FileSystem, MetadataEmittedAtInterval) {
  FsBehavior behavior = plain_behavior(64 * KiB);
  behavior.metadata_interval = 1 * MiB;
  FileSystemModel fs(behavior);
  fs.mount(GiB);
  std::size_t metadata = 0;
  for (int i = 0; i < 32; ++i) {  // 32 x 128 KiB = 4 MiB -> 4 metadata reads.
    for (const auto& r : fs.submit({NvmOp::kRead, i * 128 * KiB, 128 * KiB, Time{}})) {
      if (r.internal) {
        ++metadata;
        EXPECT_EQ(r.op, NvmOp::kRead);
        EXPECT_TRUE(r.barrier);
        EXPECT_GE(r.offset, GiB);  // Beyond the data region.
      }
    }
  }
  EXPECT_EQ(metadata, 4u);
}

TEST(FileSystem, JournalCommitsFollowWrites) {
  FsBehavior behavior = plain_behavior(64 * KiB);
  behavior.journal_interval = 256 * KiB;
  behavior.journal_size = 8 * KiB;
  FileSystemModel fs(behavior);
  fs.mount(GiB);
  std::size_t commits = 0;
  for (int i = 0; i < 8; ++i) {  // 8 x 128 KiB writes = 1 MiB -> 4 commits.
    for (const auto& r : fs.submit({NvmOp::kWrite, i * 128 * KiB, 128 * KiB, Time{}})) {
      if (r.internal && r.op == NvmOp::kWrite) ++commits;
    }
  }
  EXPECT_EQ(commits, 4u);
}

TEST(FileSystem, NoJournalOnReads) {
  FsBehavior behavior = plain_behavior(64 * KiB);
  behavior.journal_interval = 64 * KiB;
  FileSystemModel fs(behavior);
  fs.mount(GiB);
  for (const auto& r : fs.submit({NvmOp::kRead, Bytes{}, MiB, Time{}})) {
    EXPECT_FALSE(r.internal && r.op == NvmOp::kWrite);
  }
}

TEST(FileSystem, StripingScramblesSequentiality) {
  FsBehavior behavior = plain_behavior(128 * KiB);
  behavior.stripe_size = 128 * KiB;
  behavior.stripe_width = 16;
  FileSystemModel fs(behavior);
  fs.mount(GiB);
  // Two consecutive logical chunks land far apart on the device.
  const Bytes first = fs.map_offset(Bytes{});
  const Bytes second = fs.map_offset(128 * KiB);
  const Bytes gap = second > first ? second - first : first - second;
  EXPECT_GT(gap, 16 * MiB);
}

TEST(FileSystem, StripingIsInjective) {
  FsBehavior behavior = plain_behavior(128 * KiB);
  behavior.stripe_size = 128 * KiB;
  behavior.stripe_width = 16;
  FileSystemModel fs(behavior);
  fs.mount(64 * MiB);
  std::set<Bytes> seen;
  for (Bytes chunk; chunk < 64 * MiB; chunk += 128 * KiB) {
    EXPECT_TRUE(seen.insert(fs.map_offset(chunk)).second) << "chunk " << chunk;
  }
}

TEST(FileSystem, StripePreservesWithinChunkOffsets) {
  FsBehavior behavior = plain_behavior(128 * KiB);
  behavior.stripe_size = 128 * KiB;
  behavior.stripe_width = 8;
  FileSystemModel fs(behavior);
  fs.mount(GiB);
  EXPECT_EQ(fs.map_offset(5 * KiB) - fs.map_offset(Bytes{}), 5 * KiB);
}

TEST(FileSystem, FragmentationRelocatesSomeExtents) {
  FsBehavior behavior = plain_behavior(64 * KiB);
  behavior.fragmentation = 0.5;
  FileSystemModel fs(behavior);
  fs.mount(GiB);
  std::size_t moved = 0;
  const std::size_t extents = 256;
  for (std::size_t i = 0; i < extents; ++i) {
    const Bytes logical = i * 64 * KiB;
    if (fs.map_offset(logical) != logical) ++moved;
  }
  EXPECT_GT(moved, extents / 4);
  EXPECT_LT(moved, extents);
}

TEST(FileSystem, FragmentationIsDeterministic) {
  FsBehavior behavior = plain_behavior(64 * KiB);
  behavior.fragmentation = 0.3;
  FileSystemModel a(behavior);
  FileSystemModel b(behavior);
  a.mount(GiB);
  b.mount(GiB);
  for (Bytes off; off < 8 * MiB; off += 64 * KiB) {
    EXPECT_EQ(a.map_offset(off), b.map_offset(off));
  }
}

TEST(FileSystem, ContiguousPiecesRemerge) {
  // Fragmentation forces piece-wise walking, but pieces whose placement
  // is untouched must merge back into full-size requests.
  FsBehavior behavior = plain_behavior(256 * KiB);
  behavior.fragmentation = 1e-9;  // Walk in fragment units, relocate none.
  behavior.fragment_unit = 64 * KiB;
  FileSystemModel fs(behavior);
  fs.mount(GiB);
  const auto out = fs.submit({NvmOp::kRead, Bytes{}, MiB, Time{}});
  ASSERT_EQ(out.size(), 4u);  // 4 x 256 KiB, not 16 x 64 KiB.
  for (const BlockRequest& r : out) EXPECT_EQ(r.size, 256 * KiB);
}

TEST(FileSystem, FragmentationBreaksMerging) {
  FsBehavior behavior = plain_behavior(256 * KiB);
  behavior.fragmentation = 0.9;
  behavior.fragment_unit = 64 * KiB;
  FileSystemModel fs(behavior);
  fs.mount(GiB);
  const auto aged = fs.submit({NvmOp::kRead, Bytes{}, MiB, Time{}});
  EXPECT_GT(aged.size(), 8u);  // Mostly 64 KiB shards.
  Bytes total;
  for (const BlockRequest& r : aged) total += r.size;
  EXPECT_EQ(total, MiB);  // Still conserves bytes.
}

TEST(FileSystem, ZeroSizeRequestYieldsNothing) {
  FileSystemModel fs(plain_behavior());
  fs.mount(GiB);
  EXPECT_TRUE(fs.submit({NvmOp::kRead, Bytes{}, Bytes{}, Time{}}).empty());
}

// ---------- presets ---------------------------------------------------------

TEST(Presets, AllLocalFilesystemsPresent) {
  const auto all = all_local_filesystems();
  ASSERT_EQ(all.size(), 8u);  // Table 2's CNL rows minus UFS.
  EXPECT_EQ(all[0].name, "JFS");
  EXPECT_EQ(all[1].name, "BTRFS");
  EXPECT_EQ(all[7].name, "EXT4-L");
}

TEST(Presets, Ext4LargeOpensCoalescing) {
  EXPECT_GT(ext4_large_behavior().max_request, ext4_behavior().max_request);
}

TEST(Presets, Ext2HasNoJournalExt3Does) {
  EXPECT_EQ(ext2_behavior().journal_interval, Bytes{0});
  EXPECT_GT(ext3_behavior().journal_interval, Bytes{0});
}

TEST(Presets, GpfsStripes) {
  const FsBehavior gpfs = gpfs_behavior();
  EXPECT_GT(gpfs.stripe_size, Bytes{0});
  EXPECT_GT(gpfs.stripe_width, 1u);
}

TEST(Presets, MergeSizesOrderedByModernity) {
  // Extent-based file systems merge larger requests than block-pointer
  // ones — the mechanism behind the Figure 7 ladder.
  EXPECT_LT(ext2_behavior().max_request, xfs_behavior().max_request + Bytes{1});
  EXPECT_LE(xfs_behavior().max_request, btrfs_behavior().max_request);
  EXPECT_LT(btrfs_behavior().max_request, ext4_large_behavior().max_request);
}

}  // namespace
}  // namespace nvmooc
