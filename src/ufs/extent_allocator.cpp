#include "ufs/extent_allocator.hpp"

#include <algorithm>
#include <stdexcept>

namespace nvmooc {

ExtentAllocator::ExtentAllocator(Bytes capacity, Bytes alignment)
    : capacity_(capacity), alignment_(alignment != Bytes{} ? alignment : Bytes{1}), free_bytes_{} {
  if (capacity_ == Bytes{}) throw std::invalid_argument("ExtentAllocator: zero capacity");
  const Bytes usable = (capacity_ / alignment_) * alignment_;
  free_[Bytes{}] = usable;
  free_bytes_ = usable;
}

Bytes ExtentAllocator::align_up(Bytes value) const {
  return ((value + alignment_ - Bytes{1}) / alignment_) * alignment_;
}

std::vector<Extent> ExtentAllocator::allocate(Bytes size) {
  std::vector<Extent> result;
  const Bytes needed = align_up(size);
  if (needed == Bytes{} || needed > free_bytes_) return result;

  // Best-fit single extent first: smallest free region that fits, which
  // preserves the big regions for big objects.
  auto best = free_.end();
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    if (it->second >= needed && (best == free_.end() || it->second < best->second)) {
      best = it;
    }
  }
  if (best != free_.end()) {
    const Bytes offset = best->first;
    const Bytes length = best->second;
    free_.erase(best);
    if (length > needed) free_[offset + needed] = length - needed;
    free_bytes_ -= needed;
    result.push_back({offset, needed});
    return result;
  }

  // Stitch: take whole free regions largest-first until satisfied.
  std::vector<std::pair<Bytes, Bytes>> regions(free_.begin(), free_.end());
  std::sort(regions.begin(), regions.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  Bytes remaining = needed;
  for (const auto& [offset, length] : regions) {
    const Bytes take = std::min(length, remaining);
    const Bytes aligned_take = take / alignment_ * alignment_;
    if (aligned_take == Bytes{}) continue;
    free_.erase(offset);
    if (length > aligned_take) free_[offset + aligned_take] = length - aligned_take;
    free_bytes_ -= aligned_take;
    result.push_back({offset, aligned_take});
    remaining -= aligned_take;
    if (remaining == Bytes{}) break;
  }
  if (remaining > Bytes{}) {
    // Could not satisfy after all (alignment slack): roll back.
    for (const Extent& extent : result) release(extent);
    result.clear();
  }
  return result;
}

void ExtentAllocator::release(const Extent& extent) {
  if (extent.length == Bytes{}) return;
  auto [it, inserted] = free_.emplace(extent.offset, extent.length);
  if (!inserted) throw std::logic_error("ExtentAllocator::release: double free");
  free_bytes_ += extent.length;

  // Merge with successor.
  auto next = std::next(it);
  if (next != free_.end() && it->first + it->second == next->first) {
    it->second += next->second;
    free_.erase(next);
  }
  // Merge with predecessor.
  if (it != free_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second == it->first) {
      prev->second += it->second;
      free_.erase(it);
    }
  }
}

}  // namespace nvmooc
