#include "fs/presets.hpp"

namespace nvmooc {

FsBehavior xfs_behavior() {
  FsBehavior fs;
  fs.name = "XFS";
  // Extent-based B+tree mapping with aggressive contiguous allocation:
  // good merges, sparse metadata, delayed-logging journal. Its queue
  // stays shallower than the ext family's (fewer, larger requests).
  fs.max_request = 32 * KiB;
  fs.queue_depth = 11;
  fs.per_request_overhead = 40 * kMicrosecond;
  fs.metadata_interval = 16 * MiB;
  fs.metadata_size = 4 * KiB;
  fs.metadata_barrier = true;
  fs.journal_interval = 1 * MiB;
  fs.journal_size = 16 * KiB;
  return fs;
}

}  // namespace nvmooc
