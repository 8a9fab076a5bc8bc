// Observability sessions: how a run turns the instruments on.
//
// Design constraints, in order:
//  1. Zero overhead when disabled (the default): instruments are probe
//     subscribers (common/probe.hpp), so a replay site costs one
//     thread-local load and a branch per event kind nobody listens to.
//     No allocation, no atomics on the hot path, no change to simulation
//     arithmetic ever.
//  2. Per-experiment isolation: the probe's subscriber set is
//     thread-local, so replays on concurrent threads keep their spans
//     and metrics separate.
//  3. Instrumentation never throws and never mutates simulation state.
//
// The accessors below are for collecting reports after a replay; during
// it, every instrument learns what happened from the probe stream.
#pragma once

#include <memory>
#include <optional>

#include "common/probe.hpp"
#include "obs/host_profiler.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_recorder.hpp"

namespace nvmooc::obs {

/// Active tracer, or null. The null test *is* the enable check.
inline TraceRecorder* tracer() {
  return static_cast<TraceRecorder*>(probe::slot(probe::Slot::kTrace));
}

/// Active metrics registry, or null.
inline MetricsRegistry* metrics() {
  return static_cast<MetricsRegistry*>(probe::slot(probe::Slot::kMetrics));
}

/// Owns a recorder and/or registry and installs them on the constructing
/// thread. The CLI surface (--trace-out / --metrics-out / --profile)
/// builds one of these around a replay and writes the exports
/// afterwards. The causal profiler (profiler.hpp) and host telemetry
/// ride along in their own probe slots, so --profile works with or
/// without tracing.
class ObsSession {
 public:
  struct Options {
    bool trace = false;
    bool metrics = false;
    bool profile = false;
    /// Host telemetry (--speed-report): events/sec, wall-time
    /// attribution, memory accounting, heartbeat.
    bool speed = false;
    double heartbeat_sec = 5.0;
  };

  explicit ObsSession(Options options);
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  TraceRecorder* trace() { return trace_.get(); }
  MetricsRegistry* metrics() { return metrics_.get(); }

 private:
  std::unique_ptr<TraceRecorder> trace_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<ProfileSession> profile_;
  std::unique_ptr<HostSession> host_;
  /// The recorder and registry in their probe slots, both (nulls
  /// included) iff either is on.
  std::optional<probe::Scoped> installed_trace_;
  std::optional<probe::Scoped> installed_metrics_;
};

}  // namespace nvmooc::obs
