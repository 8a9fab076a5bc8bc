#include "fs/presets.hpp"

namespace nvmooc {

FsBehavior jfs_behavior() {
  FsBehavior fs;
  fs.name = "JFS";
  // Extent-capable but with a conservative I/O path: mid-sized merges
  // and B+tree metadata consulted more often than XFS/ext4 on streaming
  // loads.
  fs.max_request = 16 * KiB;
  fs.queue_depth = 17;
  fs.per_request_overhead = 45 * kMicrosecond;
  fs.metadata_interval = 4 * MiB;
  fs.metadata_size = 4 * KiB;
  fs.metadata_barrier = true;
  fs.journal_interval = 512 * KiB;
  fs.journal_size = 8 * KiB;
  return fs;
}

}  // namespace nvmooc
