#include "ufs/ufs.hpp"

#include <stdexcept>

#include "common/probe.hpp"

namespace nvmooc {

UnifiedFileSystem::UnifiedFileSystem(UfsConfig config)
    : config_(config), store_(config.capacity, config.alignment) {
  behavior_.name = "UFS";
  behavior_.block_size = config_.alignment;
  // Effectively unsplit: the only cap is the window itself.
  behavior_.max_request = config_.window;
  behavior_.readahead = config_.window;
  behavior_.queue_depth = config_.queue_depth;
  behavior_.per_request_overhead = config_.per_request_overhead;
  behavior_.metadata_interval = Bytes{};
  behavior_.journal_interval = Bytes{};
}

ObjectId UnifiedFileSystem::provision_dataset(Bytes size) {
  const auto id = store_.create(size);
  if (!id) throw std::runtime_error("UFS: dataset does not fit on device");
  dataset_ = *id;
  return dataset_;
}

std::vector<BlockRequest> UnifiedFileSystem::submit_object(ObjectId id,
                                                           const PosixRequest& request) {
  std::vector<BlockRequest> out;
  if (request.size == Bytes{}) return out;
  for (const Extent& extent : store_.translate(id, request.offset, request.size)) {
    BlockRequest device;
    device.op = request.op;
    device.offset = extent.offset;
    device.size = extent.length;
    // fsync-like POSIX barriers pass through to every extent: UFS has no
    // journal to order through, so the drain happens at the device queue.
    device.barrier = request.barrier;
    out.push_back(device);
  }

  // An extent split multiplies one application request into several
  // device requests — worth a breadcrumb when chasing a straggler.
  if (out.size() > 1) {
    probe::note(Time{}, "ufs", "extent_split", (request.offset).value(), out.size());
  }
  return out;
}

std::vector<BlockRequest> UnifiedFileSystem::submit(const PosixRequest& request) {
  if (dataset_ == 0) {
    throw std::logic_error("UFS: provision_dataset() must be called before submit()");
  }
  return submit_object(dataset_, request);
}

}  // namespace nvmooc
