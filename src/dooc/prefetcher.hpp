// Tile prefetcher: DOoC's "basic prefetching" for sequential OoC sweeps.
// A background thread reads `depth` tiles ahead of the consumer so SpMM
// compute overlaps storage I/O.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/units.hpp"
#include "ooc/tile_store.hpp"

namespace nvmooc {

struct PrefetchStats {
  std::uint64_t hits = 0;    ///< get() found the tile already buffered.
  std::uint64_t stalls = 0;  ///< get() had to wait for the read.
  std::uint64_t read_retries = 0;  ///< Failed read attempts that were retried.
  std::uint64_t failed_tiles = 0;  ///< Tiles given up on after the retry budget.
};

class TilePrefetcher {
 public:
  struct TileRef {
    Bytes offset;
    Bytes bytes;
  };

  /// Prefetches from `storage` along the given tile sequence, keeping at
  /// most `depth` tiles buffered ahead of the consumer. A read that
  /// throws is retried up to `max_read_retries` times; a tile that
  /// exhausts the budget is marked failed, and get() on it rethrows.
  TilePrefetcher(Storage& storage, std::vector<TileRef> tiles, std::size_t depth,
                 std::uint32_t max_read_retries = 0);
  ~TilePrefetcher();

  TilePrefetcher(const TilePrefetcher&) = delete;
  TilePrefetcher& operator=(const TilePrefetcher&) = delete;

  /// Blocks until tile `index` is available and returns its bytes. Tiles
  /// must be consumed in monotonically non-decreasing index order;
  /// consuming index i releases all buffers below i. Throws
  /// std::runtime_error if the tile's read failed permanently (its retry
  /// budget ran out).
  std::shared_ptr<const std::vector<std::uint8_t>> get(std::size_t index);

  /// Restarts the sweep from tile 0 (the next solver iteration).
  void restart();

  const PrefetchStats& stats() const { return stats_; }

 private:
  void worker_loop();

  Storage& storage_;
  std::vector<TileRef> tiles_;
  std::size_t depth_;
  std::uint32_t max_read_retries_;

  std::mutex mutex_;
  std::condition_variable state_changed_;
  std::map<std::size_t, std::shared_ptr<const std::vector<std::uint8_t>>> buffered_;
  std::size_t consumer_index_ = 0;  ///< Lowest index still needed.
  std::size_t fetch_index_ = 0;     ///< Next tile the worker will read.
  std::uint64_t generation_ = 0;    ///< Bumped by restart().
  bool stopping_ = false;
  PrefetchStats stats_;

  std::thread worker_;
};

}  // namespace nvmooc
