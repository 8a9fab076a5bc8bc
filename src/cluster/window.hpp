// Flow-control window of each replay-engine client: admits a request once
// enough earlier requests have completed to keep at most `byte_limit`
// bytes (and/or `slot_limit` requests) in flight.
#pragma once

#include <queue>
#include <vector>

#include "common/units.hpp"

namespace nvmooc {

class Window {
 public:
  explicit Window(Bytes byte_limit, std::size_t slot_limit = 0)
      : byte_limit_(byte_limit), slot_limit_(slot_limit) {}

  /// Earliest time a request of `bytes` may issue, given it is ready at
  /// `earliest`: pops completed in-flight entries (waiting for them when
  /// necessary) until the new request fits.
  [[nodiscard]] Time admit(Time earliest, Bytes bytes) {
    Time t = earliest;
    while (!inflight_.empty() &&
           ((byte_limit_ > Bytes{} && outstanding_ + bytes > byte_limit_) ||
            (slot_limit_ > 0 && inflight_.size() >= slot_limit_))) {
      const auto [done, size] = inflight_.top();
      inflight_.pop();
      outstanding_ -= size;
      t = std::max(t, done);
    }
    return t;
  }

  void launch(Time completion, Bytes bytes) {
    inflight_.emplace(completion, bytes);
    outstanding_ += bytes;
  }

  [[nodiscard]] Bytes outstanding() const { return outstanding_; }

 private:
  using Entry = std::pair<Time, Bytes>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> inflight_;
  Bytes outstanding_;
  Bytes byte_limit_;
  std::size_t slot_limit_;
};

}  // namespace nvmooc
