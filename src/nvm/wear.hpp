// Wear accounting for erase-before-write media.
//
// NAND wears per erase block; PCM wears per written line (per GST cell
// group) — the paper notes PCM "requires wear-leveling at a much lower
// level". Counters are sparse so a 1 TiB device with millions of blocks
// costs memory only for blocks actually touched.
#pragma once

#include <cstdint>
#include <unordered_map>


namespace nvmooc {

struct WearSummary {
  std::uint64_t total_erases = 0;
  std::uint64_t total_writes = 0;
  std::uint64_t touched_units = 0;
  std::uint64_t max_unit_erases = 0;
  std::uint64_t min_unit_erases = 0;  ///< Among touched units.
  double mean_unit_erases = 0.0;
  /// max/mean among touched units; 1.0 = perfectly level.
  double imbalance = 1.0;
};

class WearTracker {
 public:
  void record_erase(std::uint64_t unit);
  /// Writes are counted in total only; erases are what wear a unit out.
  void record_writes(std::uint64_t count) { total_writes_ += count; }

  std::uint64_t erases(std::uint64_t unit) const;

  WearSummary summary() const;

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> erase_counts_;
  std::uint64_t total_erases_ = 0;
  std::uint64_t total_writes_ = 0;
};

}  // namespace nvmooc
