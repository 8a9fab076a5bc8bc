// Metrics registry: named counters, gauges, log-bucketed histograms and
// time series, registered per subsystem ("fs.requests_out",
// "ssd.wait.channel_contention_us", "engine.queue_depth_bytes", ...).
//
// Naming convention: "<subsystem>.<metric>[_<unit>]", lower_snake_case,
// with the unit suffix spelled out (_us, _bytes, _kib) whenever the
// value is dimensional — see docs/OBSERVABILITY.md.
//
// The registry is installed in its probe slot for a run
// (cluster/instruments.hpp). Registration and
// lookup lock; recording into an already-looked-up metric does not. It is
// also a probe subscriber (common/probe.hpp): the replay-side metrics —
// per-request latency and byte counts, per-device-request media
// counters, degraded re-fetches — are derived from the probe stream, so
// no replay site names the registry.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/probe.hpp"
#include "common/units.hpp"

namespace nvmooc::obs {

class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Percentile digest of a histogram (or of any sample stream).
struct HistogramSummary {
  std::uint64_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double max = 0.0;
};

/// HdrHistogram-style log-bucketed histogram over non-negative doubles:
/// each power-of-two octave is subdivided into `kSubBuckets` linear
/// buckets, giving a bounded relative error (~3%) across the full double
/// range with sparse storage. Unlike common/stats.hpp's fixed-range
/// Histogram, no [lo, hi) has to be guessed up front — which is what the
/// per-phase wait distributions need (waits span six orders of
/// magnitude between an idle channel and a retry storm).
class LogHistogram {
 public:
  static constexpr std::uint32_t kSubBuckets = 16;

  void record(double value, std::uint64_t weight = 1);

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  /// Linear-interpolated quantile. An empty histogram yields 0 with a
  /// warning (mirrors Histogram::quantile — see common/stats.cpp).
  double quantile(double q) const;

  HistogramSummary summary() const;

  /// Sparse (bucket_lo, bucket_hi, count) triples in ascending order.
  std::vector<std::tuple<double, double, std::uint64_t>> buckets() const;

 private:
  static std::int32_t bucket_index(double value);
  static double bucket_lo(std::int32_t index);

  std::map<std::int32_t, std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Bounded time series of (sim time, value) samples. When the buffer
/// fills, every other retained point is dropped and the keep-stride
/// doubles — long replays keep an evenly thinned outline instead of
/// truncating.
class TimeSeries {
 public:
  explicit TimeSeries(std::size_t max_points = 4096);

  void sample(Time t, double value);

  const std::vector<std::pair<Time, double>>& points() const { return points_; }

 private:
  std::size_t max_points_;
  std::uint64_t stride_ = 1;
  std::uint64_t cursor_ = 0;  ///< Samples seen since the last retained one.
  std::vector<std::pair<Time, double>> points_;
};

/// Snapshot of one metric, embeddable in ExperimentResult and JSON.
struct MetricSnapshot {
  std::string name;
  std::string kind;  ///< "counter" | "gauge" | "histogram".
  double value = 0.0;              ///< Counter/gauge value.
  HistogramSummary histogram;      ///< Histograms only.
};

class MetricsRegistry final : public probe::Subscriber {
 public:
  MetricsRegistry();

  /// Lookup-or-create. References stay valid for the registry's
  /// lifetime (node-stable map storage).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  LogHistogram& histogram(const std::string& name);

  std::vector<MetricSnapshot> snapshot() const;

  /// Full JSON dump (histograms include their sparse buckets).
  void write_json(std::ostream& out) const;
  std::string json() const;

  // Probe subscription: the replay-side metrics.
  void on_replay_begin(std::uint64_t posix_requests) override;
  void on_posix(const probe::Posix& posix) override;
  void on_request_close(const probe::RequestClose& request) override;
  void on_media_end(const probe::MediaDone& done) override;
  void on_note(const probe::Note& note) override;

 private:
  /// "latency.<stage>_us", registered at replay begin so the per-request
  /// path records without re-hashing names.
  std::array<LogHistogram*, probe::kLatencyStageCount> latency_{};

  mutable std::mutex mutex_;
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, LogHistogram> histograms_;
};

/// The calling thread's active metrics registry, or null.
inline MetricsRegistry* metrics() {
  return static_cast<MetricsRegistry*>(probe::slot(probe::Slot::kMetrics));
}

}  // namespace nvmooc::obs
