#include "fs/presets.hpp"

namespace nvmooc {

FsBehavior reiserfs_behavior() {
  FsBehavior fs;
  fs.name = "REISERFS";
  // Single balanced tree for everything: frequent tree-node reads
  // interleave with data and merges stay small; the deep queue of an
  // old-school elevator keeps it just ahead of ext2/ext3.
  fs.max_request = 8 * KiB;
  fs.queue_depth = 30;
  fs.per_request_overhead = 56 * kMicrosecond;
  fs.metadata_interval = 2 * MiB;
  fs.metadata_size = 4 * KiB;
  fs.metadata_barrier = true;
  fs.journal_interval = 256 * KiB;
  fs.journal_size = 8 * KiB;
  return fs;
}

}  // namespace nvmooc
