// DOoC-style distributed data pool.
//
// The paper's DOoC storage layer exposes immutable-once-written arrays
// reachable from any node, "removing any need for complicated coherency
// mechanisms" (Section 2.1). This pool reproduces those semantics for an
// in-process "cluster": arrays are written once, sealed, then readable
// concurrently without locking on the read path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"

namespace nvmooc {

using ArrayId = std::uint64_t;

class DataPool {
 public:
  /// Allocates an unsealed array of `size` bytes on logical `node`.
  ArrayId create(Bytes size, std::uint32_t node = 0);

  /// Writes into an unsealed array. Throws if already sealed.
  void write(ArrayId id, Bytes offset, const void* data, Bytes size);

  /// Seals: the array becomes immutable and readable.
  void seal(ArrayId id);

  /// Reads from a sealed array (lock-free once sealed). Throws if the
  /// array is still being written.
  void read(ArrayId id, Bytes offset, void* destination, Bytes size) const;

  bool is_sealed(ArrayId id) const;
  [[nodiscard]] Bytes size(ArrayId id) const;
  std::uint32_t node_of(ArrayId id) const;

 private:
  struct Array {
    std::vector<std::uint8_t> bytes;
    std::uint32_t node = 0;
    std::atomic<bool> sealed{false};
    std::mutex write_mutex;
  };

  std::shared_ptr<Array> get(ArrayId id) const;

  mutable std::mutex registry_mutex_;
  std::unordered_map<ArrayId, std::shared_ptr<Array>> arrays_;
  std::uint64_t next_id_ = 1;
};

}  // namespace nvmooc
