// The Unified File System — the paper's primary software contribution.
//
// UFS replaces both the traditional file system *and* the device-side
// FTL's request reshaping: the application addresses raw device space,
// and requests pass through unsplit, so a multi-megabyte OoC read arrives
// at the SSD as one request the controller can fan out across every
// channel, die and plane (PAL4). Allocation is host-controlled (the FTL
// elevated to the host, as Fusion-IO's DFS commercialised): the dataset
// is one extent from device offset 0, so the host and device cooperate on
// scheduling instead of fighting through a block-layer abstraction.
#pragma once

#include "fs/filesystem.hpp"

namespace nvmooc {

struct UfsConfig {
  /// Device capacity the dataset extent must fit in.
  Bytes capacity = 1024ULL * GiB;
};

/// UFS as an I/O path for one pre-loaded dataset, interface-compatible
/// with the traditional file-system models so the replay engine treats
/// them uniformly.
class UnifiedFileSystem : public IoPath {
 public:
  explicit UnifiedFileSystem(UfsConfig config = {});

  /// Places the dataset the trace addresses as one extent at device
  /// offset 0. Throws std::runtime_error when it does not fit.
  void provision_dataset(Bytes size);

  /// IoPath: the request passes through whole — one device request at
  /// the same offset, no splitting, no metadata, no journal. Throws
  /// std::logic_error before provision_dataset() and std::out_of_range
  /// for a range past the dataset.
  std::vector<BlockRequest> submit(const PosixRequest& request) override;
  const FsBehavior& behavior() const override { return behavior_; }

 private:
  UfsConfig config_;
  FsBehavior behavior_;
  bool provisioned_ = false;
  Bytes dataset_size_;
};

}  // namespace nvmooc
