#include "nvm/wear.hpp"

#include <algorithm>
#include <limits>

namespace nvmooc {

void WearTracker::record_erase(std::uint64_t unit) {
  ++erase_counts_[unit];
  ++total_erases_;
}

std::uint64_t WearTracker::erases(std::uint64_t unit) const {
  const auto it = erase_counts_.find(unit);
  return it == erase_counts_.end() ? 0 : it->second;
}

WearSummary WearTracker::summary() const {
  WearSummary out;
  out.total_erases = total_erases_;
  out.total_writes = total_writes_;
  out.touched_units = erase_counts_.size();
  if (erase_counts_.empty()) {
    // No touched units: min/max/mean erases are 0 and the device is
    // trivially level. Returning here guards the mean division below —
    // an untouched tracker (fresh device, or PCM whose wear is recorded
    // per write) must not divide by zero or leave fields at sentinels.
    out.min_unit_erases = 0;
    out.max_unit_erases = 0;
    out.mean_unit_erases = 0.0;
    out.imbalance = 1.0;
    return out;
  }
  std::uint64_t max_count = 0;
  std::uint64_t min_count = std::numeric_limits<std::uint64_t>::max();
  // simlint: allow(unordered-iter) -- min/max are order-independent folds.
  for (const auto& [unit, count] : erase_counts_) {
    max_count = std::max(max_count, count);
    min_count = std::min(min_count, count);
  }
  out.max_unit_erases = max_count;
  out.min_unit_erases = min_count;
  out.mean_unit_erases =
      static_cast<double>(total_erases_) / static_cast<double>(erase_counts_.size());
  out.imbalance = out.mean_unit_erases > 0.0
                      ? static_cast<double>(max_count) / out.mean_unit_erases
                      : 1.0;
  return out;
}

}  // namespace nvmooc
