// POSIX-level I/O traces: what the OoC application emits above the file
// system (the paper's compute-node POSIX trace of Figure 6), plus the
// pattern statistics used to characterise them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "nvm/nvm_types.hpp"

namespace nvmooc {

/// One application-level request against a logical file address space.
struct PosixRequest {
  NvmOp op = NvmOp::kRead;
  Bytes offset;
  Bytes size;
  /// Earliest time the application can issue it (compute dependencies);
  /// 0 means "as soon as the previous work allows".
  Time not_before;
  /// fsync-like ordering: every earlier request must complete before
  /// this one issues, and later requests wait for it. Propagated to all
  /// device requests this one expands into (checkpoint commits).
  bool barrier = false;
};

struct TraceStats {
  std::uint64_t requests = 0;
  Bytes total_bytes;
  Bytes read_bytes;
  Bytes write_bytes;
  double read_fraction = 1.0;
  /// Fraction of requests starting exactly where the previous ended.
  double sequentiality = 0.0;
  Bytes min_request;
  Bytes max_request;
  double mean_request = 0.0;
};

class Trace {
 public:
  void add(PosixRequest request) { requests_.push_back(request); }
  void add(NvmOp op, Bytes offset, Bytes size, Time not_before = {},
           bool barrier = false) {
    requests_.push_back({op, offset, size, not_before, barrier});
  }

  const std::vector<PosixRequest>& requests() const { return requests_; }
  std::size_t size() const { return requests_.size(); }
  bool empty() const { return requests_.empty(); }
  const PosixRequest& operator[](std::size_t i) const { return requests_[i]; }

  /// Highest byte address touched plus one — the dataset extent.
  [[nodiscard]] Bytes extent() const;

  TraceStats stats() const;

  /// Text serialisation: one "op offset size not_before [barrier]" line
  /// per request; the barrier column is written only when set, and its
  /// absence loads as false (older four-column traces stay readable).
  /// load() skips blank lines and throws std::runtime_error naming the
  /// path, line and field on anything else it cannot parse.
  void save(const std::string& path) const;
  static Trace load(const std::string& path);

 private:
  std::vector<PosixRequest> requests_;
};

}  // namespace nvmooc
