// Media timing parameters — Table 1 of the paper, extended with the
// geometry facts (page size, pages per block, planes) needed to drive the
// die model, plus the intrinsic program-latency variation NANDFlashSim
// emphasises for MLC/TLC (fast LSB pages, slow CSB/MSB pages).
#pragma once

#include <array>
#include <cstdint>

#include "common/units.hpp"
#include "nvm/nvm_types.hpp"

namespace nvmooc {

struct NvmTiming {
  NvmType type = NvmType::kSlc;

  /// Native page size (the unit moved per cell activation).
  Bytes page_size = 2 * KiB;
  /// Pages per erase block.
  std::uint32_t pages_per_block = 64;
  /// Planes per die (multi-plane commands can activate both at once).
  std::uint32_t planes_per_die = 2;
  /// Blocks per plane (sets die capacity).
  std::uint32_t blocks_per_plane = 2048;

  /// Cell activation latencies (Table 1). Program latency for MLC/TLC
  /// varies by the position of the page inside its block: `write_min`
  /// applies to the fastest (LSB) page, `write_max` to the slowest.
  Time read_time = 25 * kMicrosecond;
  Time read_time_max = 25 * kMicrosecond;  ///< PCM reads vary 115-135ns.
  Time write_min = 250 * kMicrosecond;
  Time write_max = 250 * kMicrosecond;
  Time erase_time = 1500 * kMicrosecond;

  /// Command/address cycle cost on the channel bus per issued operation.
  Time command_time = 200 * kNanosecond;

  /// Program/erase cycles a block endures before wear-out (used by the
  /// wear accounting, not to fail the simulation).
  std::uint64_t endurance = 100'000;

  /// Derived quantities ---------------------------------------------------
  [[nodiscard]] Bytes block_size() const { return page_size * pages_per_block; }
  [[nodiscard]] Bytes plane_size() const { return block_size() * blocks_per_plane; }
  Bytes die_size() const { return plane_size() * planes_per_die; }

  /// Deterministic per-page program latency: pages interleave fast/slow in
  /// the bit-line order real MLC/TLC parts exhibit.
  [[nodiscard]] Time write_time_for_page(std::uint32_t page_in_block) const;
  /// write_time_for_page() depends only on page_in_block % write_period():
  /// 1 when programs are uniform, 2 for MLC (LSB, MSB), 3 for TLC (LSB,
  /// CSB, MSB).
  [[nodiscard]] std::uint32_t write_period() const {
    if (write_min == write_max) return 1;
    return type == NvmType::kTlc ? 3 : 2;
  }

  /// Deterministic per-page read latency (PCM jitter modelled as a small
  /// page-index-dependent ramp; NAND reads are uniform).
  [[nodiscard]] Time read_time_for_page(std::uint32_t page_in_block) const;
  /// Page positions the read ramp spans.
  static constexpr std::uint32_t kReadJitterPeriod = 8;
  /// read_time_for_page() depends only on page_in_block % read_period():
  /// 1 when reads are uniform, else kReadJitterPeriod.
  [[nodiscard]] std::uint32_t read_period() const {
    return read_time == read_time_max ? 1 : kReadJitterPeriod;
  }

  /// Ideal per-die streaming read bandwidth in bytes/second, cell-limited
  /// (page_size / read_time, both planes active).
  double die_read_bandwidth() const;
};

/// Cell time of back-to-back activations, in O(1). Each per-page latency
/// depends only on the page's phase (its index in the block modulo the
/// op's period; erases always take erase_time), so the time of any run of
/// pages is whole cycles plus prefix sums of one cycle, block by block:
/// exact integer arithmetic on at most kReadJitterPeriod + 1 sums per op.
/// Built once per device from the per-page functions; no heap memory.
class CellTimeTable {
 public:
  explicit CellTimeTable(const NvmTiming& timing);

  /// Sum of the per-page latencies of `cells` activations of `op` on pages
  /// page_in_block, page_in_block + 1, ..., each taken modulo
  /// pages_per_block (a run wraps to the block's first page).
  [[nodiscard]] Time run_time(NvmOp op, std::uint32_t page_in_block,
                              std::uint32_t cells) const {
    const Phases& phases = ops_[static_cast<int>(op)];
    const std::uint64_t first =
        page_in_block < pages_per_block_ ? page_in_block : page_in_block % pages_per_block_;
    if (cells == 1) {
      const std::uint64_t phase = first % phases.period;
      return phases.prefix[phase + 1] - phases.prefix[phase];
    }
    const std::uint64_t end = first + cells;
    if (end <= pages_per_block_) return phases.upto(end) - phases.upto(first);
    // The rest of this block, then whole blocks, then the last one's head.
    const std::uint64_t past = end - pages_per_block_;
    return phases.block - phases.upto(first) + (past / pages_per_block_) * phases.block +
           phases.upto(past % pages_per_block_);
  }

 private:
  struct Phases {
    std::uint32_t period = 1;
    /// prefix[k]: the latencies of phases 0..k-1; prefix[period] is a cycle.
    std::array<Time, NvmTiming::kReadJitterPeriod + 1> prefix{};
    Time block;  ///< Pages 0..pages_per_block-1.
    /// Latencies of pages 0..pages-1 of one block.
    [[nodiscard]] Time upto(std::uint64_t pages) const {
      return (pages / period) * prefix[period] + prefix[pages % period];
    }
  };

  std::uint64_t pages_per_block_;
  std::array<Phases, 3> ops_;
};

/// Table 1 parameter sets.
NvmTiming slc_timing();
NvmTiming mlc_timing();
NvmTiming tlc_timing();
NvmTiming pcm_timing();

NvmTiming timing_for(NvmType type);

}  // namespace nvmooc
