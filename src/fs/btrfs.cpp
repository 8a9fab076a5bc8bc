#include "fs/presets.hpp"

namespace nvmooc {

FsBehavior btrfs_behavior() {
  FsBehavior fs;
  fs.name = "BTRFS";
  // The best-performing untuned FS of Figure 7: large CoW extents merge
  // into big bios, and checksum-tree nodes are prefetched asynchronously
  // (no pipeline stall) — at the cost of per-request checksum CPU work
  // and some CoW-induced relocation.
  fs.max_request = 64 * KiB;
  fs.queue_depth = 10;
  fs.per_request_overhead = 35 * kMicrosecond;
  fs.metadata_interval = 2 * MiB;
  fs.metadata_size = 16 * KiB;
  fs.metadata_barrier = false;  // csum reads overlap data reads.
  fs.journal_interval = 512 * KiB;  // log tree
  fs.journal_size = 16 * KiB;
  fs.fragmentation = 0.05;
  return fs;
}

}  // namespace nvmooc
