// Request-level tail-latency decomposition: the per-request phase
// ledger, its always-on aggregation into per-stage quantile histograms,
// and the tail-exemplar reservoir behind --exemplars-out.
//
// The aggregate read_latency p50/p99 in ExperimentResult says *that* the
// tail is slow; this layer says *why*. Every device request the engine
// replays carries a PhaseLedger splitting its ready-to-completion time
// into the stages of the I/O path (the ISSUE's
// issue -> queue-wait -> FS/UFS grant -> controller dispatch -> bus ->
// media -> ECC-retry -> completion chain, mapped onto the quantities the
// engine and controller already compute):
//
//   queue_wait       flow-control window wait (ready -> admit)
//   cpu              host-core submission serialisation (admit -> grant)
//   dispatch         FS/UFS I/O-path software latency (grant -> issue)
//   bus              channel + flash-bus activation (data movement)
//   media_wait       cell + channel contention (queueing inside the SSD)
//   media            cell activation (the read/program itself)
//   ecc_retry        read-retry ladder delay (fault injection only)
//   completion_tail  non-overlapped DMA / link tail past the media
//   total            ready -> completion
//
// Three consumers, in increasing cost:
//  1. LatencyAccumulator — always on, like ExperimentResult::phase_wait:
//     per-stage LogHistograms summarised (p50/p90/p99/p999) into
//     ExperimentResult::latency. Pure derived accounting; never touches
//     simulation arithmetic, so makespans stay bit-identical.
//  2. The metrics registry — when one is installed (--metrics-out),
//     each stage also lands in "latency.<stage>_us".
//  3. LatencyObservatory — installed per replay (--exemplars-out or
//     --exemplars), keeps the K slowest ledgers per request class and
//     renders them as Perfetto-loadable span waterfalls: the p999
//     stragglers, without paying full --trace-out cost. A probe
//     subscriber, installed by LatencySession like every other
//     instrument.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/probe.hpp"
#include "common/units.hpp"
#include "obs/metrics.hpp"

namespace nvmooc::obs {

/// The stage taxonomy and the per-request ledger are probe vocabulary
/// (common/probe.hpp): the engine emits each ledger once, and every
/// consumer below subscribes to it.
using LatencyStage = probe::LatencyStage;
using PhaseLedger = probe::PhaseLedger;
using probe::kLatencyStageCount;

/// JSON/metric key for a stage ("queue_wait", "media", ...).
const char* latency_stage_key(LatencyStage stage);

/// Always-on per-stage quantile summary, embedded in ExperimentResult
/// and serialised under "latency" (docs/OBSERVABILITY.md).
struct LatencyBreakdown {
  std::array<HistogramSummary, kLatencyStageCount> stage{};
  HistogramSummary read_total;   ///< total stage, reads only.
  HistogramSummary write_total;  ///< total stage, writes only.
};

/// Owned by the engine for one replay; every completed request's ledger
/// is folded in (derived accounting, like phase_wait — not optional).
class LatencyAccumulator {
 public:
  void record(const PhaseLedger& ledger);
  [[nodiscard]] LatencyBreakdown breakdown() const;

 private:
  std::array<LogHistogram, kLatencyStageCount> stage_;
  LogHistogram read_total_;
  LogHistogram write_total_;
};

/// The K slowest ledgers of one request class, kept sorted slowest-first.
/// Deterministic: ties on total latency break toward the lower (earlier)
/// request id, so reruns keep identical exemplar sets.
class ExemplarReservoir {
 public:
  explicit ExemplarReservoir(std::size_t capacity) : capacity_(capacity) {}

  void offer(const PhaseLedger& ledger);
  [[nodiscard]] const std::vector<PhaseLedger>& ledgers() const { return ledgers_; }

 private:
  std::size_t capacity_;
  std::vector<PhaseLedger> ledgers_;  ///< Sorted: total desc, id asc.
};

/// Collects tail exemplars over one replay and renders them. A probe
/// subscriber: LatencySession installs it, and it observes every request
/// ledger the engine closes.
class LatencyObservatory final : public probe::Subscriber {
 public:
  explicit LatencyObservatory(std::size_t per_class = 8);

  void on_request_close(const probe::RequestClose& request) override;

  [[nodiscard]] std::uint64_t observed() const { return observed_; }
  /// All exemplars, grouped by class (classes in lexicographic order),
  /// slowest-first within each class.
  [[nodiscard]] std::vector<PhaseLedger> exemplars() const;

  /// Chrome trace_event JSON: one Perfetto "process" per exemplar, with
  /// a real-timestamp track (request + media spans) and a decomposition
  /// track laying the stage durations end to end — the waterfall.
  [[nodiscard]] std::string waterfall_json() const;

  /// One line per class for the CLI footer.
  [[nodiscard]] std::string summary() const;

 private:
  std::size_t per_class_;
  std::uint64_t observed_ = 0;
  std::map<std::string, ExemplarReservoir> classes_;
};

/// Owns a LatencyObservatory (constructor argument: exemplars kept per
/// class) and installs it on the constructing thread for its lifetime.
/// Build one per replay: the CLI surface (--exemplars-out) wraps the run
/// in a session and writes the waterfalls afterwards.
class LatencySession : public probe::Session<LatencyObservatory, probe::Slot::kLatency> {
 public:
  using Session::Session;
  [[nodiscard]] LatencyObservatory& observatory() { return instrument_; }
};

}  // namespace nvmooc::obs
