#include "fs/presets.hpp"

namespace nvmooc {

FsBehavior gpfs_behavior() {
  FsBehavior fs;
  fs.name = "GPFS";
  // What the ION's SSD sees below the NSD server: stripe-sized chunks
  // whose on-device placement interleaves the stripes of many client
  // streams — largely sequential client I/O arrives scrambled (Figure 6,
  // top). Requests themselves are respectable 128 KiB pieces, which is
  // why GPFS lights up every channel (high channel utilisation) without
  // engaging whole packages.
  fs.max_request = 128 * KiB;
  fs.queue_depth = 8;  // The network RPC window (2) binds first anyway.
  fs.per_request_overhead = 30 * kMicrosecond;
  fs.stripe_size = 128 * KiB;
  fs.stripe_width = 16;
  fs.metadata_interval = 8 * MiB;
  fs.metadata_size = 4 * KiB;
  fs.metadata_barrier = true;
  return fs;
}

std::vector<FsBehavior> all_local_filesystems() {
  return {jfs_behavior(),      btrfs_behavior(), xfs_behavior(),
          reiserfs_behavior(), ext2_behavior(),  ext3_behavior(),
          ext4_behavior(),     ext4_large_behavior()};
}

}  // namespace nvmooc
