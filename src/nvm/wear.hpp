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
  void record_write(std::uint64_t unit);

  std::uint64_t erases(std::uint64_t unit) const;
  std::uint64_t writes(std::uint64_t unit) const;

  WearSummary summary() const;

  /// Unit with the fewest erases among `candidates_end` sequential unit
  /// ids starting at 0 — a helper for wear-aware allocation tests.
  std::uint64_t least_worn(std::uint64_t candidates_end) const;

 private:
  std::unordered_map<std::uint64_t, std::uint64_t> erase_counts_;
  std::unordered_map<std::uint64_t, std::uint64_t> write_counts_;
  std::uint64_t total_erases_ = 0;
  std::uint64_t total_writes_ = 0;
};

}  // namespace nvmooc
