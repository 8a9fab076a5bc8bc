// Raw device-space extent allocator for UFS.
//
// UFS exposes the SSD "in terms of raw device addresses rather than
// human-readable filenames" (paper Section 3.2). Objects are carved out
// of the device address space in large, page-aligned extents; keeping
// extents maximal is what preserves request sequentiality all the way to
// the NVM transactions.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/units.hpp"

namespace nvmooc {

struct Extent {
  Bytes offset;
  Bytes length;
  [[nodiscard]] Bytes end() const { return offset + length; }
};

class ExtentAllocator {
 public:
  /// Manages [0, capacity), handing out alignment-aligned extents.
  ExtentAllocator(Bytes capacity, Bytes alignment);

  /// Allocates `size` bytes, preferring a single extent; falls back to
  /// stitching the largest free regions. Returns the extent list (empty
  /// if space is insufficient).
  std::vector<Extent> allocate(Bytes size);

  /// Returns an extent to the free pool, merging neighbours.
  void release(const Extent& extent);

  [[nodiscard]] Bytes capacity() const { return capacity_; }
  [[nodiscard]] Bytes free_bytes() const { return free_bytes_; }
  std::size_t free_fragment_count() const { return free_.size(); }

 private:
  [[nodiscard]] Bytes align_up(Bytes value) const;

  Bytes capacity_;
  Bytes alignment_;
  Bytes free_bytes_;
  /// offset -> length, disjoint, sorted, coalesced.
  std::map<Bytes, Bytes> free_;
};

}  // namespace nvmooc
