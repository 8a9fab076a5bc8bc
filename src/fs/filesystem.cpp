#include "fs/filesystem.hpp"

#include <algorithm>

#include "common/probe.hpp"

namespace nvmooc {
namespace {

/// Deterministic 64-bit mix (splitmix64 finaliser) for reproducible
/// pseudo-random placement decisions.
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

FileSystemModel::FileSystemModel(FsBehavior behavior) : behavior_(std::move(behavior)) {
  // The cap is at least one 4 KiB block; append_data_requests divides
  // by it.
  behavior_.max_request = std::max(behavior_.max_request, 4 * KiB);
}

void FileSystemModel::mount(Bytes data_extent) {
  data_extent_ = data_extent;
  // Round the regions to 1 MiB so metadata/journal traffic is aligned.
  const Bytes base = ((data_extent + MiB - Bytes{1}) / MiB) * MiB;
  metadata_base_ = base;
  journal_base_ = base + 512 * MiB;
  journal_cursor_ = Bytes{};
  bytes_since_metadata_ = Bytes{};
  bytes_since_journal_ = Bytes{};
  metadata_counter_ = 0;
}

Bytes FileSystemModel::map_offset(Bytes logical) const {
  Bytes mapped = logical;

  // GPFS-style striping: chunk index b goes to stripe (b mod width);
  // stripes occupy disjoint on-device regions, so consecutive chunks land
  // far apart (the scrambling of Figure 6, top).
  if (behavior_.stripe_size > Bytes{} && behavior_.stripe_width > 1) {
    const std::uint64_t chunk = logical / behavior_.stripe_size;
    const Bytes within = logical % behavior_.stripe_size;
    const std::uint64_t stripes_total =
        (data_extent_ + behavior_.stripe_size - Bytes{1}) / behavior_.stripe_size + 1;
    const std::uint64_t rows =
        (stripes_total + behavior_.stripe_width - 1) / behavior_.stripe_width;
    const std::uint64_t stripe = chunk % behavior_.stripe_width;
    const std::uint64_t row = chunk / behavior_.stripe_width;
    mapped = (stripe * rows + row) * behavior_.stripe_size + within;
  }

  // Fragmentation: relocate fragment_unit-sized extents with a
  // deterministic hash (aged allocator / copy-on-write placement).
  if (behavior_.fragmentation > 0.0 && data_extent_ > behavior_.fragment_unit) {
    const std::uint64_t extent_index = mapped / behavior_.fragment_unit;
    const std::uint64_t hash = mix(extent_index + 0x5bd1e995);
    const double draw = static_cast<double>(hash >> 11) * 0x1.0p-53;
    if (draw < behavior_.fragmentation) {
      const std::uint64_t slots = data_extent_ / behavior_.fragment_unit;
      const std::uint64_t slot = mix(extent_index) % slots;
      mapped = slot * behavior_.fragment_unit + mapped % behavior_.fragment_unit;
    }
  }
  return mapped;
}

void FileSystemModel::append_data_requests(NvmOp op, Bytes device_offset, Bytes size,
                                           std::vector<BlockRequest>& out) {
  // Coalesce up to max_request.
  Bytes cursor = device_offset;
  Bytes remaining = size;
  while (remaining > Bytes{}) {
    // A request may not cross a max_request-aligned boundary — this is
    // the block layer's segment limit.
    const Bytes boundary = (cursor / behavior_.max_request + 1) * behavior_.max_request;
    const Bytes take = std::min(remaining, boundary - cursor);
    BlockRequest request;
    request.op = op;
    request.offset = cursor;
    request.size = take;
    out.push_back(request);
    cursor += take;
    remaining -= take;
  }
}

void FileSystemModel::maybe_emit_metadata(Bytes processed, std::vector<BlockRequest>& out) {
  if (behavior_.metadata_interval == Bytes{}) return;
  bytes_since_metadata_ += processed;
  while (bytes_since_metadata_ >= behavior_.metadata_interval) {
    bytes_since_metadata_ -= behavior_.metadata_interval;
    BlockRequest metadata;
    metadata.op = NvmOp::kRead;
    // Metadata blocks scatter over a 256 MiB region (inode tables,
    // B-tree nodes): random small reads amid the data stream.
    const Bytes region = 256 * MiB;
    metadata.offset = metadata_base_ +
                      (mix(metadata_counter_++) % (region / behavior_.metadata_size)) *
                          behavior_.metadata_size;
    metadata.size = behavior_.metadata_size;
    metadata.barrier = behavior_.metadata_barrier;
    metadata.internal = true;
    out.push_back(metadata);
    // Internal traffic is a classic tail suspect: a flight dump shows
    // whether a straggler was preceded by a metadata chase.
    probe::note(Time{}, "fs", "metadata_read", (metadata.offset).value(),
                (metadata.size).value());
  }
}

std::vector<BlockRequest> FileSystemModel::submit(const PosixRequest& request) {
  std::vector<BlockRequest> out;
  if (request.size == Bytes{}) return out;

  // Mapping metadata is consulted *before* the data moves: emit the
  // synchronous metadata read first so it stalls the stream, as a real
  // indirect-block chase does.
  maybe_emit_metadata(request.size, out);

  // Walk the logical range in pieces within which the device mapping is
  // contiguous: stripe chunks under striping, fragment units on an aged
  // file system, or the whole request on a pristine contiguous layout.
  Bytes piece = request.size;
  if (behavior_.stripe_size > Bytes{}) piece = behavior_.stripe_size;
  if (behavior_.fragmentation > 0.0) {
    piece = std::min<Bytes>(piece, behavior_.fragment_unit);
  }
  if (piece == Bytes{}) piece = request.size;
  // Adjacent pieces whose device placement happens to be contiguous
  // merge back together — only real discontinuities break requests.
  Bytes logical = request.offset;
  Bytes remaining = request.size;
  Bytes run_mapped;
  Bytes run_length;
  while (remaining > Bytes{}) {
    const Bytes within = logical % piece;
    const Bytes take = std::min(remaining, piece - within);
    const Bytes mapped = map_offset(logical);
    if (run_length > Bytes{} && mapped == run_mapped + run_length) {
      run_length += take;
    } else {
      if (run_length > Bytes{}) append_data_requests(request.op, run_mapped, run_length, out);
      run_mapped = mapped;
      run_length = take;
    }
    logical += take;
    remaining -= take;
  }
  if (run_length > Bytes{}) append_data_requests(request.op, run_mapped, run_length, out);

  // An application-level barrier (fsync, checkpoint commit) marks the
  // last piece of the expansion: everything before it drains, and later
  // requests wait for it — the journal commit below, if one fires, then
  // trails that ordered tail.
  if (request.barrier && !out.empty()) out.back().barrier = true;

  // Journal commits trail the data writes they cover.
  if (request.op == NvmOp::kWrite && behavior_.journal_interval > Bytes{}) {
    bytes_since_journal_ += request.size;
    while (bytes_since_journal_ >= behavior_.journal_interval) {
      bytes_since_journal_ -= behavior_.journal_interval;
      BlockRequest commit;
      commit.op = NvmOp::kWrite;
      commit.offset = journal_base_ + journal_cursor_;
      commit.size = behavior_.journal_size;
      // Commit records order against other journal writes via FUA inside
      // the journal machinery; they do not drain the read stream.
      commit.barrier = false;
      commit.internal = true;
      out.push_back(commit);
      probe::note(Time{}, "fs", "journal_commit", (commit.offset).value(),
                  (commit.size).value());
      journal_cursor_ = (journal_cursor_ + behavior_.journal_size) % journal_span_;
    }
  }
  return out;
}

}  // namespace nvmooc
