// Unit tests for the NVM media layer: Table 1 timing, page-position
// latency variation, bus rates, wear accounting.
#include <gtest/gtest.h>

#include <cmath>

#include "nvm/bus.hpp"
#include "nvm/timing.hpp"
#include "nvm/wear.hpp"

namespace nvmooc {
namespace {

// ---------- Table 1 -------------------------------------------------------

TEST(Timing, Table1PageSizes) {
  EXPECT_EQ(slc_timing().page_size, 2 * KiB);
  EXPECT_EQ(mlc_timing().page_size, 4 * KiB);
  EXPECT_EQ(tlc_timing().page_size, 8 * KiB);
  EXPECT_EQ(pcm_timing().page_size, Bytes{64});
}

TEST(Timing, Table1ReadLatencies) {
  EXPECT_EQ(slc_timing().read_time, 25 * kMicrosecond);
  EXPECT_EQ(mlc_timing().read_time, 50 * kMicrosecond);
  EXPECT_EQ(tlc_timing().read_time, 150 * kMicrosecond);
  EXPECT_EQ(pcm_timing().read_time, 115 * kNanosecond);
  EXPECT_EQ(pcm_timing().read_time_max, 135 * kNanosecond);
}

TEST(Timing, Table1WriteAndEraseLatencies) {
  EXPECT_EQ(slc_timing().write_min, 250 * kMicrosecond);
  EXPECT_EQ(slc_timing().write_max, 250 * kMicrosecond);
  EXPECT_EQ(mlc_timing().write_min, 250 * kMicrosecond);
  EXPECT_EQ(mlc_timing().write_max, 2200 * kMicrosecond);
  EXPECT_EQ(tlc_timing().write_min, 440 * kMicrosecond);
  EXPECT_EQ(tlc_timing().write_max, 6000 * kMicrosecond);
  EXPECT_EQ(pcm_timing().write_min, 35 * kMicrosecond);

  EXPECT_EQ(slc_timing().erase_time, 1500 * kMicrosecond);
  EXPECT_EQ(mlc_timing().erase_time, 2500 * kMicrosecond);
  EXPECT_EQ(tlc_timing().erase_time, 3000 * kMicrosecond);
  EXPECT_EQ(pcm_timing().erase_time, 35 * kMicrosecond);
}

TEST(Timing, EraseBlocksWithinNandNorms) {
  // Paper: NAND erase blocks "typically range between 64kB and 256kB"
  // (and denser media trend larger).
  for (NvmType type : {NvmType::kSlc, NvmType::kMlc}) {
    const NvmTiming t = timing_for(type);
    EXPECT_GE(t.block_size(), 64 * KiB);
    EXPECT_LE(t.block_size(), 512 * KiB);
  }
  // PCM's emulated block is small (NOR-style interface over 64 B lines).
  EXPECT_EQ(pcm_timing().block_size(), 4 * KiB);
}

TEST(Timing, WriteVariationCyclesAcrossPages) {
  const NvmTiming mlc = mlc_timing();
  EXPECT_EQ(mlc.write_time_for_page(0), mlc.write_min);  // LSB page fast.
  EXPECT_EQ(mlc.write_time_for_page(1), mlc.write_max);  // MSB page slow.
  EXPECT_EQ(mlc.write_time_for_page(2), mlc.write_min);

  const NvmTiming tlc = tlc_timing();
  EXPECT_EQ(tlc.write_time_for_page(0), tlc.write_min);
  EXPECT_GT(tlc.write_time_for_page(1), tlc.write_min);
  EXPECT_LT(tlc.write_time_for_page(1), tlc.write_max);
  EXPECT_EQ(tlc.write_time_for_page(2), tlc.write_max);
}

TEST(Timing, ReadVariationBounded) {
  const NvmTiming pcm = pcm_timing();
  for (std::uint32_t page = 0; page < 64; ++page) {
    const Time t = pcm.read_time_for_page(page);
    EXPECT_GE(t, pcm.read_time);
    EXPECT_LE(t, pcm.read_time_max);
  }
}

TEST(Timing, UniformMediaHasNoVariation) {
  const NvmTiming slc = slc_timing();
  for (std::uint32_t page = 0; page < 10; ++page) {
    EXPECT_EQ(slc.read_time_for_page(page), slc.read_time);
    EXPECT_EQ(slc.write_time_for_page(page), slc.write_min);
  }
}

TEST(Timing, DieCapacityConsistent) {
  for (NvmType type : kAllNvmTypes) {
    const NvmTiming t = timing_for(type);
    EXPECT_EQ(t.die_size(), t.page_size * t.pages_per_block *
                                t.blocks_per_plane * t.planes_per_die);
    // All media share the ~8 GiB-per-die ballpark so device capacities
    // are comparable across NVM types.
    EXPECT_GE(t.die_size(), 7 * GiB);
    EXPECT_LE(t.die_size(), 9 * GiB);
  }
}

TEST(Timing, DieReadBandwidthOrdering) {
  // PCM line reads stream far faster than NAND page reads; TLC is the
  // slowest NAND.
  EXPECT_GT(pcm_timing().die_read_bandwidth(), slc_timing().die_read_bandwidth());
  EXPECT_GT(slc_timing().die_read_bandwidth(), tlc_timing().die_read_bandwidth());
  EXPECT_GT(mlc_timing().die_read_bandwidth(), tlc_timing().die_read_bandwidth());
}

// ---------- bus ----------------------------------------------------------

TEST(Bus, Onfi3SdrRate) {
  const BusConfig bus = onfi3_sdr_bus();
  EXPECT_DOUBLE_EQ(bus.byte_rate(), 400e6);  // 400 MHz x 8 bit SDR.
}

TEST(Bus, FutureDdrRate) {
  const BusConfig bus = future_ddr_bus();
  EXPECT_DOUBLE_EQ(bus.byte_rate(), 1600e6);  // 800 MHz x 8 bit DDR.
}

TEST(Bus, TransferTimeScalesLinearly) {
  const BusConfig bus = onfi3_sdr_bus();
  const Time t1 = bus.transfer_time(4 * KiB);
  const Time t2 = bus.transfer_time(8 * KiB);
  EXPECT_NEAR(static_cast<double>(t2), 2.0 * static_cast<double>(t1),
              static_cast<double>(t1) * 0.01);
}

TEST(Bus, DescribeMentionsMode) {
  EXPECT_NE(onfi3_sdr_bus().describe().find("SDR"), std::string::npos);
  EXPECT_NE(future_ddr_bus().describe().find("DDR"), std::string::npos);
}

// ---------- cell time table -----------------------------------------------

/// The per-cell loop the die model ran before CellTimeTable: one per-page
/// latency per activation, pages wrapping at the block end. The oracle.
Time per_cell_time(const NvmTiming& timing, NvmOp op, std::uint32_t page_in_block,
                   std::uint32_t cell_ops) {
  Time total;
  for (std::uint32_t i = 0; i < cell_ops; ++i) {
    const std::uint32_t page = (page_in_block + i) % timing.pages_per_block;
    switch (op) {
      case NvmOp::kRead:
        total += timing.read_time_for_page(page);
        break;
      case NvmOp::kWrite:
        total += timing.write_time_for_page(page);
        break;
      case NvmOp::kErase:
        total += timing.erase_time;
        break;
    }
  }
  return total;
}

// Differential: the O(1) table equals the per-cell loop exactly, over
// about 1.1M seeded runs on every medium and op, block sizes that are and
// are not multiples of the periods, start pages past the block end, and
// runs of 1 to 4096 cells (log-uniform, so long runs wrap many blocks).
TEST(CellTimeTable, MatchesPerCellLoop) {
  std::uint64_t state = 0x2545f4914f6cdd1dULL;
  const auto draw = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::uint64_t checked = 0;
  for (NvmType type : kAllNvmTypes) {
    for (const std::uint32_t pages_per_block :
         {1u, 3u, 5u, 7u, 100u, timing_for(type).pages_per_block}) {
      NvmTiming timing = timing_for(type);
      timing.pages_per_block = pages_per_block;
      const CellTimeTable table(timing);
      for (const NvmOp op : {NvmOp::kRead, NvmOp::kWrite, NvmOp::kErase}) {
        for (int i = 0; i < 15'000; ++i) {
          const std::uint32_t first =
              static_cast<std::uint32_t>(draw() % (4 * pages_per_block + 4096));
          const std::uint32_t cells =
              1 + static_cast<std::uint32_t>(draw() % (std::uint64_t{1} << (draw() % 13)));
          const Time want = per_cell_time(timing, op, first, cells);
          const Time got = table.run_time(op, first, cells);
          if (got != want) {
            ADD_FAILURE() << to_string(type) << " pages_per_block=" << pages_per_block
                          << " op=" << static_cast<int>(op) << " first=" << first
                          << " cells=" << cells << ": " << got.ps() << " ps, want "
                          << want.ps();
            return;
          }
          ++checked;
        }
      }
    }
  }
  EXPECT_GE(checked, 1'000'000u);
}

// ---------- wear -----------------------------------------------------------

TEST(Wear, CountsAndSummary) {
  WearTracker wear;
  wear.record_erase(1);
  wear.record_erase(1);
  wear.record_erase(2);
  wear.record_writes(1);
  const WearSummary s = wear.summary();
  EXPECT_EQ(s.total_erases, 3u);
  EXPECT_EQ(s.total_writes, 1u);
  EXPECT_EQ(s.touched_units, 2u);
  EXPECT_EQ(s.max_unit_erases, 2u);
  EXPECT_EQ(s.min_unit_erases, 1u);
  EXPECT_NEAR(s.imbalance, 2.0 / 1.5, 1e-12);
}

TEST(Wear, EmptySummaryIsNeutral) {
  // Regression: an untouched tracker must report well-defined zeros, not
  // iterate over an empty map (min over nothing) or divide by zero.
  const WearSummary s = WearTracker{}.summary();
  EXPECT_EQ(s.total_erases, 0u);
  EXPECT_EQ(s.total_writes, 0u);
  EXPECT_EQ(s.touched_units, 0u);
  EXPECT_EQ(s.min_unit_erases, 0u);
  EXPECT_EQ(s.max_unit_erases, 0u);
  EXPECT_DOUBLE_EQ(s.mean_unit_erases, 0.0);
  EXPECT_DOUBLE_EQ(s.imbalance, 1.0);
  EXPECT_FALSE(std::isnan(s.imbalance));
}

}  // namespace
}  // namespace nvmooc
