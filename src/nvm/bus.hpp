// NVM interface bus model (the per-channel data bus between the NAND/PCM
// packages and the device controller).
//
// The paper contrasts the ONFi 3 bus (400 MHz single data rate, roughly
// DDR2-400 in RAM terms) with a future DDR interface similar to DDR3-1600
// (800 MHz double data rate). Bandwidth per channel follows directly:
// frequency x transfers-per-cycle x width.
#pragma once

#include <string>

#include "common/units.hpp"

namespace nvmooc {

struct BusConfig {
  double frequency_hz = 400e6;
  bool double_data_rate = false;
  unsigned width_bits = 8;

  /// Payload rate in bytes per second.
  double byte_rate() const {
    return frequency_hz * (double_data_rate ? 2.0 : 1.0) *
           static_cast<double>(width_bits) / 8.0;
  }

  /// Time the bus is held to move `bytes`.
  [[nodiscard]] Time transfer_time(Bytes bytes) const {
    return ::nvmooc::transfer_time(bytes, byte_rate());
  }

  std::string describe() const;
};

/// ONFi 3.x: 400 MHz SDR, 8-bit — 400 MB/s per channel.
BusConfig onfi3_sdr_bus();

/// Future DDR3-1600-like NVM bus: 800 MHz DDR, 8-bit — 1.6 GB/s per channel.
BusConfig future_ddr_bus();

}  // namespace nvmooc
