// Device-level request and NVM-transaction records, plus the parallelism
// classification (PAL1-4) and execution-phase taxonomy of the paper's
// Section 4.5.
#pragma once

#include <array>
#include <cstdint>

#include "common/units.hpp"
#include "nvm/nvm_types.hpp"

namespace nvmooc {

/// Parallelism levels (paper Section 4.5):
///  PAL1: channel striping + pipelining only.
///  PAL2: die (bank) interleaving on top of PAL1.
///  PAL3: multi-plane operation on top of PAL1.
///  PAL4: all of the above.
enum class ParallelismLevel : std::uint8_t { kPal1 = 0, kPal2 = 1, kPal3 = 2, kPal4 = 3 };

inline const char* to_string(ParallelismLevel level) {
  switch (level) {
    case ParallelismLevel::kPal1: return "PAL1";
    case ParallelismLevel::kPal2: return "PAL2";
    case ParallelismLevel::kPal3: return "PAL3";
    case ParallelismLevel::kPal4: return "PAL4";
  }
  return "?";
}

/// The six execution-time buckets of Figure 10.
enum class Phase : std::uint8_t {
  kNonOverlappedDma = 0,
  kFlashBusActivation = 1,
  kChannelActivation = 2,
  kCellContention = 3,
  kChannelContention = 4,
  kCellActivation = 5,
};
inline constexpr int kPhaseCount = 6;

inline const char* to_string(Phase phase) {
  switch (phase) {
    case Phase::kNonOverlappedDma: return "Non-overlapped DMA";
    case Phase::kFlashBusActivation: return "Flash bus activation";
    case Phase::kChannelActivation: return "Channel activation";
    case Phase::kCellContention: return "Cell contention";
    case Phase::kChannelContention: return "Channel contention";
    case Phase::kCellActivation: return "Cell activation";
  }
  return "?";
}

/// Machine-readable spelling of the same phases — JSON keys and trace
/// span names (docs/OBSERVABILITY.md).
inline const char* phase_key(Phase phase) {
  switch (phase) {
    case Phase::kNonOverlappedDma: return "non_overlapped_dma";
    case Phase::kFlashBusActivation: return "flash_bus_activation";
    case Phase::kChannelActivation: return "channel_activation";
    case Phase::kCellContention: return "cell_contention";
    case Phase::kChannelContention: return "channel_contention";
    case Phase::kCellActivation: return "cell_activation";
  }
  return "?";
}

/// A request as it reaches the SSD: the output of a file-system model (or
/// of UFS, which passes application requests through nearly verbatim).
struct BlockRequest {
  NvmOp op = NvmOp::kRead;
  Bytes offset;  ///< Logical byte address within the device.
  Bytes size;
  /// Barrier semantics: all earlier requests must complete before this
  /// one issues, and later ones wait for it (journal commits, metadata
  /// reads that gate further lookups).
  bool barrier = false;
  /// True for FS-internal traffic (journal/metadata) — accounted to
  /// overhead, not payload, when computing achieved bandwidth.
  bool internal = false;
};

/// Completion record for one BlockRequest.
struct RequestResult {
  Time issue;
  Time media_begin;
  Time media_end;
  Bytes bytes;
  std::uint32_t transactions = 0;
  ParallelismLevel pal = ParallelismLevel::kPal1;

  /// This request's critical-path contribution to each Figure-10 phase —
  /// the same capped quantities the controller folds into
  /// ControllerStats::phase_time, returned per request so callers can
  /// build per-request wait distributions (kNonOverlappedDma stays 0
  /// here; the engine owns that phase).
  std::array<Time, kPhaseCount> phase_time{};

  // Reliability outcome (all zero/false when fault injection is off).
  std::uint32_t retries = 0;            ///< Read-retry steps across all transactions.
  std::uint32_t uncorrectable_units = 0;  ///< Transactions whose data was lost.
  Bytes uncorrectable_bytes;        ///< Payload bytes those transactions carried.
  Time retry_time;                  ///< Latency the retry ladders added.
  bool hard_failure = false;            ///< Device crossed its capacity-loss threshold.
};

}  // namespace nvmooc
