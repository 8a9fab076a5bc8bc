// Seeded, deterministic fault injection for the NVM replay stack.
//
// Real devices deliver their headline bandwidth through a reliability
// machinery the rest of this repository used to assume away: raw media
// bit errors (RBER) that grow with wear, dies that die, channels that
// stall. The FaultInjector decides — reproducibly — what goes wrong and
// when. Every draw is a pure hash of (seed, physical unit, per-unit
// access ordinal, ladder attempt), so the injected fault pattern is a
// function of the configuration alone, independent of scheduling order
// or host concurrency: same seed, same faults, bit-identical counters.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "nvm/nvm_types.hpp"

namespace nvmooc {

/// A die that stops returning valid data: every read sense targeting it
/// at or after `begin` fails uncorrectably (controller status check, no
/// retry ladder — the data is gone, only the replicated path above can
/// recover it).
struct DieStuckFault {
  std::uint32_t channel = 0;
  std::uint32_t package = 0;
  std::uint32_t die = 0;
  Time begin;
};

/// A transient channel stall (firmware hiccup, link retrain): any
/// transaction wanting the channel inside [begin, begin + duration)
/// waits for the window to pass. Shows up as channel contention.
struct ChannelStallFault {
  std::uint32_t channel = 0;
  Time begin;
  Time duration;
};

struct FaultConfig {
  /// Master switch. When false (the default) the whole reliability layer
  /// is compiled around: no injector is built, the controller's fast
  /// path is byte-identical to the fault-free simulator.
  bool enabled = false;
  std::uint64_t seed = 0x5eedf00dULL;
  /// Raw bit error rate of pristine media. Negative means "use the
  /// media-type default" (media_base_rber).
  double rber = -1.0;
  /// Wear scaling: effective RBER = rber * (1 + wear_slope * cycles /
  /// endurance), the usual near-linear RBER-vs-P/E-cycles trend.
  double wear_slope = 4.0;
  std::vector<DieStuckFault> stuck_dies;
  std::vector<ChannelStallFault> channel_stalls;
};

/// Pristine-media raw bit error rates by cell technology. Denser cells
/// store smaller charge margins: SLC is orders of magnitude cleaner than
/// TLC; PCM's resistive read is cleaner still.
double media_base_rber(NvmType type);

/// End-to-end reliability accounting, merged into ExperimentResult from
/// the controller (senses), the FTL (bad blocks) and the replay engine
/// (degraded-mode recovery).
struct ReliabilityStats {
  std::uint64_t corrected_reads = 0;      ///< Senses ECC had to repair.
  std::uint64_t read_retries = 0;         ///< Ladder steps taken.
  std::uint64_t uncorrectable_reads = 0;  ///< Senses the ladder lost.
  std::uint64_t die_stuck_reads = 0;      ///< Failures from stuck dies.
  std::uint64_t channel_stalls = 0;       ///< Transactions delayed by a stall.
  Time retry_time;                    ///< Device time added by retries.

  std::uint64_t remapped_blocks = 0;      ///< Blocks retired by BBM.
  std::uint64_t remap_relocations = 0;    ///< Live pages moved off bad blocks.
  std::uint64_t spare_blocks_used = 0;    ///< Retirements absorbed by spares.
  Bytes capacity_lost;                ///< Usable bytes lost past the spares.

  std::uint64_t degraded_requests = 0;    ///< Requests recovered via the ION replica.
  Bytes degraded_bytes;               ///< Bytes served by that recovery path.
  bool hard_failure = false;              ///< Capacity loss crossed the device limit.
  bool aborted = false;                   ///< Replay stopped (no replica to fall back to).
  std::string abort_reason;               ///< Human-readable diagnostics when aborted.

  /// Payload the *device itself* delivered per makespan second, MB/s —
  /// achieved bandwidth with replica-recovered bytes excluded.
  double effective_mbps = 0.0;
};

/// Stateless uniform draw in [0, 1): a splitmix64-style hash of the four
/// words.
double fault_uniform(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                     std::uint64_t c);

class FaultInjector {
 public:
  FaultInjector(const FaultConfig& config, NvmType media, std::uint64_t endurance);

  const FaultConfig& config() const { return config_; }

  /// Uniform draw for the `attempt`-th sense of the `access`-th read of
  /// physical `unit`. Pure function of (seed, unit, access, attempt).
  double uniform(std::uint64_t unit, std::uint64_t access, std::uint32_t attempt) const {
    return fault_uniform(config_.seed, unit, access, attempt);
  }

  /// Bumps and returns the read-access ordinal for `unit` (0 for the
  /// first read). Sparse: only read units cost memory.
  std::uint64_t next_access(std::uint64_t unit);

  /// Effective RBER for a page whose block has seen `erases` cycles.
  double effective_rber(std::uint64_t erases) const;

  bool die_stuck(std::uint32_t channel, std::uint32_t package, std::uint32_t die,
                 Time when) const;

  /// Earliest time `channel` is usable at or after `when`; sets
  /// `*stalled` when a stall window pushed the time back.
  [[nodiscard]] Time channel_available(std::uint32_t channel, Time when, bool* stalled) const;

 private:
  FaultConfig config_;
  double base_rber_ = 0.0;
  double endurance_inverse_ = 0.0;
  std::unordered_map<std::uint64_t, std::uint64_t> access_counts_;
};

}  // namespace nvmooc
