// Outside-in layer driver for the traced benchmark run.
//
// Replays one configuration by calling the layers' public entry points
// (IoPath::submit, Ssd::submit, DmaEngine::transfer, Ssd::device_stats)
// in the order ReplayEngine::run does, with the same Window flow control,
// and optionally records a wall-clock span around every call. The
// simulated answer must equal run_experiment's bit for bit; the engine's
// derived accounting (latency ledgers, histograms, profiler and audit
// hooks) is left out because it never feeds back into the simulation.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/experiment.hpp"
#include "trace/trace.hpp"

namespace perfbench {

/// The simulated answer of one replay, compared field by field.
struct Digest {
  std::int64_t makespan_ps = 0;
  std::uint64_t transactions = 0;
  std::uint64_t device_requests = 0;
  std::array<double, 4> pal_fraction{};
  double makespan_ms = 0.0;
  double achieved_mbps = 0.0;
  double channel_utilization = 0.0;

  bool operator==(const Digest&) const = default;
  std::string json() const;
};

Digest digest_of(const nvmooc::ExperimentResult& result);

/// The layers the driver times, one span kind each.
enum class Layer : std::uint8_t {
  kReplay = 0,       ///< The whole replay loop (parent of the rest).
  kIoPath = 1,       ///< IoPath::submit (src/fs, src/ufs).
  kSsdRead = 2,      ///< Ssd::submit of a read (src/ssd).
  kSsdWrite = 3,     ///< Ssd::submit of a write (src/ssd).
  kLink = 4,         ///< DmaEngine::transfer (src/interconnect).
  kDeviceStats = 5,  ///< Ssd::device_stats (src/ssd).
};
inline constexpr int kLayerCount = 6;
const char* layer_name(Layer layer);

struct Span {
  Layer layer;
  std::uint32_t request;  ///< POSIX request ordinal; the replay's count for kReplay.
  std::int64_t start_ns;  ///< Relative to the replay span's start.
  std::int64_t dur_ns;
};

/// Spans of one replay plus the work counts taken at the same boundaries.
struct LayerTrace {
  std::string config;
  std::vector<Span> spans;
  std::array<double, kLayerCount> seconds{};  ///< Summed span time per layer.
  std::uint64_t posix_requests = 0;
  std::uint64_t device_requests = 0;  ///< IoPath expansion (non-empty requests).
  std::uint64_t link_transfers = 0;
  std::uint64_t ftl_writes = 0;

  /// Replay span minus every child span: the driver's own loop time.
  double self_seconds() const;
};

struct DriverResult {
  Digest digest;
  double wall_seconds = 0.0;
  LayerTrace trace;  ///< Spans only when recording was asked for.
};

/// Replays `trace` through `config`; throws std::runtime_error for a
/// fault-injected config or an uncorrectable read (neither is benchmarked).
DriverResult drive(const nvmooc::ExperimentConfig& config, const nvmooc::Trace& trace,
                   bool record_spans);

}  // namespace perfbench
