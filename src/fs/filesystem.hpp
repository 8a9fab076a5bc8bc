// Behavioural file-system models.
//
// The paper reduces each file system to its effect on the device-level
// block trace (Section 3.2): how large the requests that actually reach
// the SSD are, how much metadata/journal traffic interleaves with them,
// how synchronous that traffic is, and (for GPFS) how striping scrambles
// sequentiality. FsBehavior captures exactly those knobs; FileSystemModel
// applies them to a POSIX request stream. Per-FS parameter sets live in
// their own translation units with commentary on why each value is what
// it is.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ssd/request.hpp"
#include "trace/trace.hpp"

namespace nvmooc {

struct FsBehavior {
  std::string name = "fs";

  /// Largest request the FS + block layer hands the device after
  /// coalescing (the paper's "artificial limits ... on how large the
  /// coalesced request can be").
  Bytes max_request = 128 * KiB;
  /// Device requests the stack keeps in flight per stream (readahead
  /// window / NCQ depth measured in requests).
  std::uint32_t queue_depth = 16;
  /// Byte backstop on outstanding I/O (page-cache budget); rarely binds.
  Bytes readahead = 16 * MiB;
  /// Host software latency added to each device request end-to-end
  /// (FS lookup, bio assembly, block-layer queueing, completion path).
  /// Latency only — submission itself pipelines.
  Time per_request_overhead = 30 * kMicrosecond;

  /// A synchronous mapping-metadata read (indirect block / extent node /
  /// B-tree node) every `metadata_interval` data bytes; 0 disables.
  Bytes metadata_interval;
  Bytes metadata_size = 4 * KiB;
  /// Synchronous metadata stalls the pipeline (barrier).
  bool metadata_barrier = true;

  /// A journal commit every `journal_interval` bytes written; 0 = none.
  Bytes journal_interval;
  Bytes journal_size = 8 * KiB;

  /// Probability a data extent is placed discontiguously (aged FS /
  /// copy-on-write relocation). Applied per fragment_unit-sized extent
  /// with a deterministic hash, so replays are reproducible. Relocated
  /// extents break request merging across their boundaries.
  double fragmentation = 0.0;
  Bytes fragment_unit = 64 * KiB;

  /// GPFS-style striping: logical stream chopped into `stripe_size`
  /// chunks scattered round-robin over `stripe_width` on-device regions.
  /// 0 disables.
  Bytes stripe_size;
  std::uint32_t stripe_width = 0;
};

/// Anything that turns application requests into device requests: the
/// traditional file systems here, and UFS (src/ufs) which bypasses them.
class IoPath {
 public:
  virtual ~IoPath() = default;
  virtual std::vector<BlockRequest> submit(const PosixRequest& request) = 0;
  virtual const FsBehavior& behavior() const = 0;
};

class FileSystemModel : public IoPath {
 public:
  explicit FileSystemModel(FsBehavior behavior);

  /// Declares the dataset extent so the model can place its metadata and
  /// journal regions beyond the data. Call once before submitting.
  void mount(Bytes data_extent);

  /// Transforms one POSIX request into the device requests the block
  /// layer would emit, in issue order.
  std::vector<BlockRequest> submit(const PosixRequest& request) override;

  const FsBehavior& behavior() const override { return behavior_; }

  /// Device address for a logical data byte (exposed for the Figure 6
  /// pattern characterisation).
  [[nodiscard]] Bytes map_offset(Bytes logical) const;

 private:
  void append_data_requests(NvmOp op, Bytes device_offset, Bytes size,
                            std::vector<BlockRequest>& out);
  void maybe_emit_metadata(Bytes processed, std::vector<BlockRequest>& out);

  FsBehavior behavior_;
  Bytes data_extent_;
  Bytes metadata_base_;
  Bytes journal_base_;
  Bytes journal_span_ = 128 * MiB;
  Bytes journal_cursor_;
  Bytes bytes_since_metadata_;
  Bytes bytes_since_journal_;
  std::uint64_t metadata_counter_ = 0;
};

}  // namespace nvmooc
