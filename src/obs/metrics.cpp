#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "common/logging.hpp"
#include "obs/json.hpp"
#include "obs/latency.hpp"

namespace nvmooc::obs {

// -- LogHistogram --------------------------------------------------------

std::int32_t LogHistogram::bucket_index(double value) {
  if (!(value > 0.0)) return std::numeric_limits<std::int32_t>::min() / 2;
  int exponent = 0;
  const double mantissa = std::frexp(value, &exponent);  // mantissa in [0.5, 1).
  // Octave base 2^(exponent-1); linear position of the mantissa above it.
  const auto sub = static_cast<std::int32_t>((mantissa - 0.5) * 2.0 *
                                             static_cast<double>(kSubBuckets));
  return exponent * static_cast<std::int32_t>(kSubBuckets) +
         std::min<std::int32_t>(sub, kSubBuckets - 1);
}

double LogHistogram::bucket_lo(std::int32_t index) {
  if (index == std::numeric_limits<std::int32_t>::min() / 2) return 0.0;
  const std::int32_t exponent =
      index >= 0 ? index / static_cast<std::int32_t>(kSubBuckets)
                 : -((-index + static_cast<std::int32_t>(kSubBuckets) - 1) /
                     static_cast<std::int32_t>(kSubBuckets));
  const std::int32_t sub = index - exponent * static_cast<std::int32_t>(kSubBuckets);
  const double base = std::ldexp(0.5, exponent);  // 2^(exponent-1).
  return base * (1.0 + static_cast<double>(sub) / kSubBuckets);
}

void LogHistogram::record(double value, std::uint64_t weight) {
  if (weight == 0) return;
  if (value < 0.0 || !std::isfinite(value)) value = 0.0;
  if (count_ == 0) {
    min_ = value;
    max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  count_ += weight;
  sum_ += value * static_cast<double>(weight);
  counts_[bucket_index(value)] += weight;
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) {
    NVMOOC_LOG_WARN("LogHistogram::quantile on an empty histogram; returning 0");
    return 0.0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  double cumulative = 0.0;
  for (const auto& [index, n] : counts_) {
    const double next = cumulative + static_cast<double>(n);
    if (next >= target) {
      const double lo = std::max(bucket_lo(index), min_);
      const double hi = std::min(bucket_lo(index + 1), max_);
      const double frac =
          n ? (target - cumulative) / static_cast<double>(n) : 0.0;
      return lo + frac * std::max(0.0, hi - lo);
    }
    cumulative = next;
  }
  return max_;
}

HistogramSummary LogHistogram::summary() const {
  HistogramSummary s;
  s.count = count_;
  if (count_ == 0) return s;
  s.mean = mean();
  s.min = min();
  s.max = max();
  s.p50 = quantile(0.50);
  s.p90 = quantile(0.90);
  s.p95 = quantile(0.95);
  s.p99 = quantile(0.99);
  s.p999 = quantile(0.999);
  return s;
}

std::vector<std::tuple<double, double, std::uint64_t>> LogHistogram::buckets()
    const {
  std::vector<std::tuple<double, double, std::uint64_t>> out;
  out.reserve(counts_.size());
  for (const auto& [index, n] : counts_) {
    out.emplace_back(bucket_lo(index), bucket_lo(index + 1), n);
  }
  return out;
}

// -- TimeSeries ----------------------------------------------------------

TimeSeries::TimeSeries(std::size_t max_points)
    : max_points_(std::max<std::size_t>(max_points, 2)) {}

void TimeSeries::sample(Time t, double value) {
  if (cursor_++ % stride_ != 0) return;
  points_.emplace_back(t, value);
  if (points_.size() >= max_points_) {
    // Thin to every other point and double the stride going forward.
    std::size_t out = 0;
    for (std::size_t i = 0; i < points_.size(); i += 2) points_[out++] = points_[i];
    points_.resize(out);
    stride_ *= 2;
  }
}

// -- MetricsRegistry -----------------------------------------------------

MetricsRegistry::MetricsRegistry()
    : probe::Subscriber(probe::bit(probe::Kind::kReplay) | probe::bit(probe::Kind::kRequest) |
                        probe::bit(probe::Kind::kMedia) | probe::bit(probe::Kind::kNote)) {}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_[name];
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return gauges_[name];
}

LogHistogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return histograms_[name];
}

std::vector<MetricSnapshot> MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<MetricSnapshot> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricSnapshot m;
    m.name = name;
    m.kind = "counter";
    m.value = static_cast<double>(c.value());
    out.push_back(std::move(m));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSnapshot m;
    m.name = name;
    m.kind = "gauge";
    m.value = g.value();
    out.push_back(std::move(m));
  }
  for (const auto& [name, h] : histograms_) {
    MetricSnapshot m;
    m.name = name;
    m.kind = "histogram";
    m.histogram = h.summary();
    out.push_back(std::move(m));
  }
  return out;
}

void MetricsRegistry::write_json(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonWriter w;
  w.begin_object();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, c] : counters_) w.field(name, c.value());
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, g] : gauges_) w.field(name, g.value());
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : histograms_) {
    w.key(name);
    w.begin_object();
    const HistogramSummary s = h.summary();
    w.field("count", s.count);
    w.field("mean", s.mean);
    w.field("min", s.min);
    w.field("p50", s.p50);
    w.field("p90", s.p90);
    w.field("p95", s.p95);
    w.field("p99", s.p99);
    w.field("p999", s.p999);
    w.field("max", s.max);
    w.key("buckets");
    w.begin_array();
    for (const auto& [lo, hi, n] : h.buckets()) {
      w.begin_array();
      w.value(lo);
      w.value(hi);
      w.value(n);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_object();
  // No metric is a series; the empty object keeps the export's shape.
  w.key("series");
  w.begin_object();
  w.end_object();
  w.end_object();
  out << w.str();
}

std::string MetricsRegistry::json() const {
  std::ostringstream out;
  write_json(out);
  return out.str();
}

// -- probe subscription --------------------------------------------------------

void MetricsRegistry::on_replay_begin(std::uint64_t /*posix_requests*/) {
  for (int s = 0; s < kLatencyStageCount; ++s) {
    latency_[static_cast<std::size_t>(s)] = &histogram(
        std::string("latency.") + latency_stage_key(static_cast<LatencyStage>(s)) + "_us");
  }
}

void MetricsRegistry::on_posix(const probe::Posix& posix) {
  // The I/O path's boundary traffic ("fs." or "ufs."); a zero-size
  // request never reaches the layer.
  if (posix.size == Bytes{}) return;
  const std::string layer = posix.layer;
  counter(layer + ".requests_in").add();
  counter(layer + ".requests_out").add(posix.device_requests);
  if (posix.internal_requests > 0) {
    counter("fs.internal_requests").add(posix.internal_requests);
    counter("fs.internal_bytes").add(posix.internal.value());
  }
}

void MetricsRegistry::on_request_close(const probe::RequestClose& request) {
  const PhaseLedger& l = request.ledger;
  if (l.read) {
    histogram("engine.read_latency_us")
        .record(static_cast<double>(l.completion - l.admit) /
                static_cast<double>(kMicrosecond));
  }
  if (latency_[0] == nullptr) on_replay_begin(0);
  for (int s = 0; s < kLatencyStageCount; ++s) {
    latency_[static_cast<std::size_t>(s)]->record(l.stage_us(static_cast<LatencyStage>(s)));
  }
  counter("engine.requests").add();
  counter(l.read ? "engine.read_bytes" : "engine.write_bytes").add(l.bytes);
}

void MetricsRegistry::on_media_end(const probe::MediaDone& done) {
  counter("ssd.requests").add();
  counter("ssd.transactions").add(done.transactions);
  histogram("ssd.request_media_us")
      .record(static_cast<double>(done.media_time) / static_cast<double>(kMicrosecond));
  if (done.retries > 0) counter("ssd.ecc_retries").add(done.retries);
  if (done.uncorrectable_units > 0) {
    counter("ssd.uncorrectable_units").add(done.uncorrectable_units);
  }
}

void MetricsRegistry::on_note(const probe::Note& note) {
  if (std::strcmp(note.category, "engine") == 0 &&
      std::strcmp(note.what, "degraded_refetch") == 0) {
    counter("engine.degraded_requests").add();
  }
}

}  // namespace nvmooc::obs
