// DOoC+LAF: the data-migration directives of the linear-algebra layer
// over the DOoC middleware (paper Sections 2.1 and 3.1): moving arrays
// between the distributed pool and a node's local storage (the pre-load
// the compute-local architecture relies on).
#pragma once

#include <cstdint>

#include "dooc/data_pool.hpp"
#include "ooc/tile_store.hpp"

namespace nvmooc {

class LafContext {
 public:
  /// `storage` is the node-local out-of-core medium (in the paper: the
  /// compute-local SSD via UFS).
  explicit LafContext(Storage& storage) : storage_(storage) {}

  /// Data migration directive: copies a sealed pool array onto this
  /// context's storage at `offset` (pool -> compute-local NVM pre-load).
  void migrate_in(const DataPool& pool, ArrayId array, Bytes offset);

  /// The reverse: publishes a storage range into the pool as a new
  /// sealed, immutable array (results leaving the node).
  ArrayId migrate_out(DataPool& pool, Bytes offset, Bytes size, std::uint32_t node = 0);

 private:
  Storage& storage_;
};

}  // namespace nvmooc
