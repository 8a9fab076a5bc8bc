#include "ufs/ufs.hpp"

#include <stdexcept>

namespace nvmooc {
namespace {

/// Extent granularity: one full device stripe row, so the dataset fans
/// out across all channels from its first byte.
constexpr Bytes kAlignment = 4 * MiB;
/// Bytes kept outstanding at the device per stream. The application (via
/// DOoC prefetching) manages this window itself — far deeper than kernel
/// readahead.
constexpr Bytes kWindow = 128 * MiB;
/// Requests kept in flight (DOoC prefetch depth).
constexpr std::uint32_t kQueueDepth = 8;
/// Host cost per request: a handle lookup and a doorbell write; there is
/// no bio assembly, no page-cache walk, no plug/unplug dance.
constexpr Time kPerRequestOverhead = 5 * kMicrosecond;

Bytes align_down(Bytes value) { return value / kAlignment * kAlignment; }

}  // namespace

UnifiedFileSystem::UnifiedFileSystem(UfsConfig config) : config_(config) {
  behavior_.name = "UFS";
  // Effectively unsplit: the only cap is the window itself.
  behavior_.max_request = kWindow;
  behavior_.readahead = kWindow;
  behavior_.queue_depth = kQueueDepth;
  behavior_.per_request_overhead = kPerRequestOverhead;
  behavior_.metadata_interval = Bytes{};
  behavior_.journal_interval = Bytes{};
}

void UnifiedFileSystem::provision_dataset(Bytes size) {
  if (align_down(size + kAlignment - Bytes{1}) > align_down(config_.capacity)) {
    throw std::runtime_error("UFS: dataset does not fit on device");
  }
  provisioned_ = true;
  dataset_size_ = size;
}

std::vector<BlockRequest> UnifiedFileSystem::submit(const PosixRequest& request) {
  if (!provisioned_) {
    throw std::logic_error("UFS: provision_dataset() must be called before submit()");
  }
  if (request.size == Bytes{}) return {};
  if (request.offset + request.size > dataset_size_) {
    throw std::out_of_range("UFS: range beyond the dataset");
  }
  BlockRequest device;
  device.op = request.op;
  device.offset = request.offset;
  device.size = request.size;
  // fsync-like POSIX barriers pass through: UFS has no journal to order
  // through, so the drain happens at the device queue.
  device.barrier = request.barrier;
  return {device};
}

}  // namespace nvmooc
