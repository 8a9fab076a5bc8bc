// DataCutter-style filters and streams (paper Section 2.1): "filters
// perform computations on flows of data, which are represented as streams
// running between producers and consumers".
//
// Stream<T> is a bounded, blocking, closeable MPMC queue; a Pipeline runs
// each filter on its own thread and propagates completion downstream via
// stream closure.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace nvmooc {

template <typename T>
class Stream {
 public:
  explicit Stream(std::size_t capacity = 16) : capacity_(capacity ? capacity : 1) {}

  /// Blocks while full. Returns false if the stream was closed (item
  /// dropped).
  bool push(T item) {
    std::unique_lock<std::mutex> lock(mutex_);
    not_full_.wait(lock, [&] { return queue_.size() < capacity_ || closed_; });
    if (closed_) return false;
    queue_.push_back(std::move(item));
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while empty; returns nullopt once the stream is closed and
  /// drained.
  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return !queue_.empty() || closed_; });
    if (queue_.empty()) return std::nullopt;
    T item = std::move(queue_.front());
    queue_.pop_front();
    not_full_.notify_one();
    return item;
  }

  void close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
  }

 private:
  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> queue_;
  std::size_t capacity_;
  bool closed_ = false;
};

/// Runs named filter bodies, one thread each, and joins them all.
class Pipeline {
 public:
  void add_filter(std::string name, std::function<void()> body);

  /// Launches every filter and blocks until all complete. Rethrows the
  /// first filter exception after joining.
  void run();

 private:
  struct FilterEntry {
    std::string name;
    std::function<void()> body;
  };
  std::vector<FilterEntry> filters_;
};

}  // namespace nvmooc
