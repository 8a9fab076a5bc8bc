// The extended-filesystem family: ext2, ext3, ext4 and the tuned
// "ext4-L" variant.
//
// Calibration note (applies to every preset in src/fs): max_request is
// the merge size that actually reaches the device, queue_depth the
// requests kept in flight, per_request_overhead the end-to-end software
// latency. The triples are fitted so the Figure 7 bandwidth ladder
// reproduces the paper's ordering and rough magnitudes on the OoC trace;
// each value stays within the plausible envelope for the 2013-era kernels
// the paper measured.
#include "fs/presets.hpp"

namespace nvmooc {

FsBehavior ext2_behavior() {
  FsBehavior fs;
  fs.name = "EXT2";
  // Block-pointer mapping: bios seldom merge past two blocks, and every
  // indirect block (one per 4 MiB of data) is a synchronous 4 KiB read
  // that stalls the stream. The lowest bar of Figure 7a.
  fs.max_request = 8 * KiB;
  fs.queue_depth = 30;
  fs.per_request_overhead = 60 * kMicrosecond;
  fs.metadata_interval = 4 * MiB;
  fs.metadata_size = 4 * KiB;
  fs.metadata_barrier = true;
  fs.journal_interval = Bytes{};  // No journal.
  return fs;
}

FsBehavior ext3_behavior() {
  // ext3 = ext2 + journaling. Reads behave nearly identically (slightly
  // newer I/O path); the journal taxes writes.
  FsBehavior fs = ext2_behavior();
  fs.name = "EXT3";
  fs.queue_depth = 32;
  fs.per_request_overhead = 58 * kMicrosecond;
  fs.journal_interval = 256 * KiB;
  fs.journal_size = 8 * KiB;
  return fs;
}

FsBehavior ext4_behavior() {
  FsBehavior fs;
  fs.name = "EXT4";
  // Extent mapping: one extent-tree node covers hundreds of megabytes;
  // bios merge to a healthy mid-size.
  fs.max_request = 32 * KiB;
  fs.queue_depth = 13;
  fs.per_request_overhead = 35 * kMicrosecond;
  fs.metadata_interval = 32 * MiB;
  fs.metadata_size = 4 * KiB;
  fs.metadata_barrier = true;
  fs.journal_interval = 512 * KiB;
  fs.journal_size = 8 * KiB;
  return fs;
}

FsBehavior ext4_large_behavior() {
  // The paper's EXT4-L: "simply turning a few kernel knobs (knobs
  // related to the number of file system requests that can be coalesced
  // together at the block device layer)": max_sectors_kb opened to let
  // half-megabyte bios through. Deep queues are unnecessary once the
  // requests are this large.
  FsBehavior fs = ext4_behavior();
  fs.name = "EXT4-L";
  fs.max_request = 512 * KiB;
  fs.queue_depth = 4;
  fs.per_request_overhead = 22 * kMicrosecond;
  return fs;
}

}  // namespace nvmooc
