// Host-side link model: the path between the device's media and the
// application's buffers. Covers PCIe (native and SATA-bridged) and the
// cluster network (InfiniBand) with the properties the paper's Section
// 3.3 analysis turns on: per-lane signalling rate, line-encoding
// efficiency (8b/10b vs 128b/130b), lane count, and fixed per-request
// protocol/bridging latency.
#pragma once

#include <cstddef>
#include <string>
#include <utility>

#include "common/stats.hpp"
#include "common/units.hpp"
#include "sim/timeline.hpp"

namespace nvmooc {

struct LinkConfig {
  std::string name = "link";
  /// Raw signalling rate per lane in transfers (bits) per second.
  double gigatransfers_per_sec = 5.0;  // PCIe 2.0.
  unsigned lanes = 8;
  /// Encoding efficiency: payload bits per transferred bit.
  double encoding = 8.0 / 10.0;
  /// Fixed request overhead: DMA setup, doorbells, protocol handshakes.
  Time request_latency = 2 * kMicrosecond;
  /// Extra per-request cost of protocol bridging (SATA<->PCIe re-encode).
  Time bridge_latency;
  /// Extra bandwidth derate from bridging/framing (1.0 = none).
  double bridge_efficiency = 1.0;

  /// Effective payload bytes per second.
  double byte_rate() const {
    return gigatransfers_per_sec * 1e9 * lanes * encoding * bridge_efficiency / 8.0;
  }

  [[nodiscard]] Time payload_time(Bytes bytes) const { return transfer_time(bytes, byte_rate()); }
};

/// Serially-occupied DMA engine over a link. Transfers queue on the link
/// timeline; the caller learns when each transfer starts/ends so it can
/// overlap media work with host DMA. The timeline only schedules, so the
/// engine keeps the link's busy union itself, adding each grant to it.
class DmaEngine {
 public:
  explicit DmaEngine(const LinkConfig& config);

  /// Schedules a transfer of `bytes` ready at `earliest` (for reads: the
  /// time the data is available in device buffers). Returns the granted
  /// interval including fixed latencies.
  Reservation transfer(Time earliest, Bytes bytes);

  /// Promises that no later transfer is ready before `watermark` (the
  /// replay engine's issue time). Once the link's busy intervals have
  /// doubled since the last fold, the ones before the watermark fold into
  /// its busy total (BusyTracker::fold_before), so the list holds what is
  /// in flight; busy().busy_time() stays exact. The link's timeline does
  /// not backfill, so it has no gaps to fold.
  void advance_watermark(Time watermark);

  const LinkConfig& config() const { return config_; }
  /// Every transfer's wire time, unioned where the grant lands.
  const BusyTracker& busy() const { return busy_; }

  /// Names the link for the instruments ("link.host", ...): every
  /// transfer reports to the probe under this name, and the tracer and
  /// profiler draw a named link's transfers as its track and segments.
  /// Unnamed links are still audited, but the tracer and profiler skip them.
  void set_trace_label(std::string label) { label_ = std::move(label); }

 private:
  LinkConfig config_;
  Timeline link_;
  BusyTracker busy_;
  std::string label_;
  /// Live interval count that triggers the next fold.
  std::size_t fold_at_ = kMinFold;
  static constexpr std::size_t kMinFold = 64;
};

}  // namespace nvmooc
