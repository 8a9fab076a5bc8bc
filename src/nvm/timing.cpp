#include "nvm/timing.hpp"

namespace nvmooc {

Time NvmTiming::write_time_for_page(std::uint32_t page_in_block) const {
  // Real MLC parts pair pages: even bit-line positions program the LSB
  // (fast) and odd positions the MSB (slow); TLC adds a middle page. We
  // model the cycle deterministically so traces replay identically.
  const std::uint32_t levels = write_period();
  if (levels == 1) return write_min;
  const std::uint32_t phase = page_in_block % levels;
  const Time span = write_max - write_min;
  return write_min + span * phase / (levels - 1);
}

Time NvmTiming::read_time_for_page(std::uint32_t page_in_block) const {
  const std::uint32_t positions = read_period();
  if (positions == 1) return read_time;
  const Time span = read_time_max - read_time;
  // Small deterministic jitter across the ramp's page positions.
  return read_time + span * (page_in_block % positions) / (positions - 1);
}

CellTimeTable::CellTimeTable(const NvmTiming& timing)
    : pages_per_block_(timing.pages_per_block) {
  const auto fill = [&](Phases& phases, std::uint32_t period, auto page_time) {
    phases.period = period;
    for (std::uint32_t phase = 0; phase < period; ++phase) {
      phases.prefix[phase + 1] = phases.prefix[phase] + page_time(phase);
    }
    phases.block = phases.upto(pages_per_block_);
  };
  fill(ops_[static_cast<int>(NvmOp::kRead)], timing.read_period(),
       [&](std::uint32_t page) { return timing.read_time_for_page(page); });
  fill(ops_[static_cast<int>(NvmOp::kWrite)], timing.write_period(),
       [&](std::uint32_t page) { return timing.write_time_for_page(page); });
  fill(ops_[static_cast<int>(NvmOp::kErase)], 1,
       [&](std::uint32_t) { return timing.erase_time; });
}

double NvmTiming::die_read_bandwidth() const {
  // Average read latency over the page-position cycle; in multi-plane mode
  // every plane activates concurrently, so a die streams
  // planes * page_size bytes per activation.
  const double avg_read =
      to_seconds(read_time) + (to_seconds(read_time_max) - to_seconds(read_time)) / 2.0;
  return static_cast<double>(page_size) * static_cast<double>(planes_per_die) / avg_read;
}

NvmTiming slc_timing() {
  NvmTiming t;
  t.type = NvmType::kSlc;
  t.page_size = 2 * KiB;
  t.pages_per_block = 64;
  t.planes_per_die = 2;
  t.blocks_per_plane = 32768;  // 4 GiB/plane, 8 GiB/die.
  t.read_time = t.read_time_max = 25 * kMicrosecond;
  t.write_min = t.write_max = 250 * kMicrosecond;
  t.erase_time = 1500 * kMicrosecond;
  t.endurance = 100'000;
  return t;
}

NvmTiming mlc_timing() {
  NvmTiming t;
  t.type = NvmType::kMlc;
  t.page_size = 4 * KiB;
  t.pages_per_block = 128;
  t.planes_per_die = 2;
  t.blocks_per_plane = 8192;  // 4 GiB/plane, 8 GiB/die.
  t.read_time = t.read_time_max = 50 * kMicrosecond;
  t.write_min = 250 * kMicrosecond;
  t.write_max = 2200 * kMicrosecond;
  t.erase_time = 2500 * kMicrosecond;
  t.endurance = 10'000;
  return t;
}

NvmTiming tlc_timing() {
  NvmTiming t;
  t.type = NvmType::kTlc;
  t.page_size = 8 * KiB;
  t.pages_per_block = 192;
  t.planes_per_die = 2;
  t.blocks_per_plane = 2731;  // ~4 GiB/plane, ~8 GiB/die.
  // Table 1 quotes 150 us; TLC parts exhibit strong page-position read
  // variation (LSB pages fast, MSB pages approaching 2x) — the intrinsic
  // latency variation NANDFlashSim models.
  t.read_time = 150 * kMicrosecond;
  t.read_time_max = 300 * kMicrosecond;
  t.write_min = 440 * kMicrosecond;
  t.write_max = 6000 * kMicrosecond;
  t.erase_time = 3000 * kMicrosecond;
  t.endurance = 3'000;
  return t;
}

NvmTiming pcm_timing() {
  NvmTiming t;
  t.type = NvmType::kPcm;
  // PCM is byte-addressable; industry wraps it behind a NOR-flash-style
  // interface (paper section 2.3) with 64 B pages and emulated 4 KiB
  // erase blocks.
  t.page_size = Bytes{64};
  t.pages_per_block = 64;
  t.planes_per_die = 2;
  t.blocks_per_plane = 1u << 20;  // 4 GiB/plane, 8 GiB/die.
  t.read_time = Time{115'000};      // 115 ns.
  t.read_time_max = Time{135'000};  // 135 ns.
  t.write_min = t.write_max = 35 * kMicrosecond;
  t.erase_time = 35 * kMicrosecond;
  t.endurance = 100'000'000;
  // A 64 B command sequence is short; PCM controllers stream line bursts.
  t.command_time = 20 * kNanosecond;
  return t;
}

NvmTiming timing_for(NvmType type) {
  switch (type) {
    case NvmType::kSlc: return slc_timing();
    case NvmType::kMlc: return mlc_timing();
    case NvmType::kTlc: return tlc_timing();
    case NvmType::kPcm: return pcm_timing();
  }
  return slc_timing();
}

}  // namespace nvmooc
