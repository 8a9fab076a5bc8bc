#include "dooc/prefetcher.hpp"

#include <stdexcept>
#include <string>

#include "common/probe.hpp"

namespace nvmooc {

TilePrefetcher::TilePrefetcher(Storage& storage, std::vector<TileRef> tiles,
                               std::size_t depth, std::uint32_t max_read_retries)
    : storage_(storage), tiles_(std::move(tiles)), depth_(depth ? depth : 1),
      max_read_retries_(max_read_retries) {
  worker_ = std::thread([this] { worker_loop(); });
}

TilePrefetcher::~TilePrefetcher() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  state_changed_.notify_all();
  worker_.join();
}

void TilePrefetcher::worker_loop() {
  for (;;) {
    std::size_t index = 0;
    std::uint64_t generation = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      state_changed_.wait(lock, [&] {
        return stopping_ ||
               (fetch_index_ < tiles_.size() && fetch_index_ < consumer_index_ + depth_);
      });
      if (stopping_) return;
      index = fetch_index_++;
      generation = generation_;
    }

    // Read outside the lock: this is the overlap with compute. A read
    // that throws is retried up to the budget; a tile that defeats it is
    // buffered as null — the poisoned entry wakes the consumer, whose
    // get() rethrows instead of blocking forever on a tile that will
    // never arrive.
    auto buffer = std::make_shared<std::vector<std::uint8_t>>(tiles_[index].bytes.value());
    std::uint32_t retries = 0;
    bool read_ok = false;
    for (std::uint32_t attempt = 0; attempt <= max_read_retries_; ++attempt) {
      try {
        storage_.read(tiles_[index].offset, buffer->data(), tiles_[index].bytes);
        read_ok = true;
        break;
      } catch (const std::exception&) {
        if (attempt < max_read_retries_) ++retries;
      }
    }

    {
      std::lock_guard<std::mutex> lock(mutex_);
      stats_.read_retries += retries;
      if (!read_ok) {
        ++stats_.failed_tiles;
        buffer = nullptr;
      }
      if (generation == generation_) buffered_.emplace(index, std::move(buffer));
    }
    state_changed_.notify_all();
  }
}

std::shared_ptr<const std::vector<std::uint8_t>> TilePrefetcher::get(std::size_t index) {
  if (index >= tiles_.size()) throw std::out_of_range("TilePrefetcher::get");
  std::unique_lock<std::mutex> lock(mutex_);
  if (index < consumer_index_) {
    throw std::logic_error("TilePrefetcher::get: tiles must be consumed in order");
  }
  // Release everything below the new consumer position and wake the
  // worker (its window just slid forward).
  consumer_index_ = index;
  buffered_.erase(buffered_.begin(), buffered_.lower_bound(index));

  const auto failed = [](const std::shared_ptr<const std::vector<std::uint8_t>>& b) {
    return b == nullptr;
  };
  const auto hit = buffered_.find(index);
  if (hit != buffered_.end()) {
    ++stats_.hits;
    auto buffer = hit->second;
    state_changed_.notify_all();
    if (failed(buffer)) {
      throw std::runtime_error("TilePrefetcher: tile " + std::to_string(index) +
                               " unreadable after retry budget");
    }
    return buffer;
  }

  ++stats_.stalls;
  state_changed_.notify_all();
  state_changed_.wait(lock, [&] { return buffered_.count(index) > 0 || stopping_; });
  // Consumer-thread breadcrumb only: the flight recorder is thread-local
  // and lock-free, so the fetch worker never notes into it.
  probe::note(Time{}, "dooc", "tile_stall", index, stats_.stalls);
  if (stopping_) throw std::runtime_error("TilePrefetcher: stopped while waiting");
  auto buffer = buffered_.at(index);
  if (failed(buffer)) {
    throw std::runtime_error("TilePrefetcher: tile " + std::to_string(index) +
                             " unreadable after retry budget");
  }
  return buffer;
}

void TilePrefetcher::restart() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++generation_;
  buffered_.clear();
  consumer_index_ = 0;
  fetch_index_ = 0;
  state_changed_.notify_all();
}

}  // namespace nvmooc
