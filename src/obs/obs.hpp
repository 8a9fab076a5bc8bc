// Observability sessions: how a run turns the instruments on, and how
// code outside the replay's probe stream reaches the active tracer and
// metrics registry.
//
// Design constraints, in order:
//  1. Zero overhead when disabled (the default): instruments are probe
//     subscribers (common/probe.hpp), so a replay site costs one
//     thread-local load and a branch per event kind nobody listens to.
//     No allocation, no atomics on the hot path, no change to simulation
//     arithmetic ever.
//  2. Per-experiment isolation: MultiEngine replays configurations on
//     concurrent threads; the probe's subscriber set is thread-local, so
//     each replay's spans and metrics stay separate. Worker threads an
//     instrumented component spawns itself (the DOoC prefetcher) inherit
//     the spawning thread's tracer and registry explicitly via
//     ScopedObsContext.
//  3. Instrumentation never throws and never mutates simulation state.
//
// Typical site outside the probe stream (a worker thread's wall-clock
// span, a component-specific counter):
//   if (obs::TraceRecorder* tr = obs::tracer()) {
//     tr->span(tr->track("dooc.prefetch"), "dooc", "tile_read", start, dur);
//   }
//   if (obs::MetricsRegistry* m = obs::metrics()) {
//     m->counter("dooc.stalls").add();
//   }
#pragma once

#include <memory>

#include "common/probe.hpp"
#include "obs/host_profiler.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_recorder.hpp"

namespace nvmooc::obs {

struct ObsContext {
  TraceRecorder* trace = nullptr;
  MetricsRegistry* metrics = nullptr;
};

/// Active tracer, or null. The null test *is* the enable check.
inline TraceRecorder* tracer() {
  return static_cast<TraceRecorder*>(probe::slot(probe::Slot::kTrace));
}

/// Active metrics registry, or null.
inline MetricsRegistry* metrics() {
  return static_cast<MetricsRegistry*>(probe::slot(probe::Slot::kMetrics));
}

/// The calling thread's tracer and registry, for handing to a worker.
inline ObsContext context() { return {tracer(), metrics()}; }

/// Installs a tracer and registry on the current thread for the scope's
/// lifetime. Components that spawn threads capture obs::context() at
/// construction and install it in the worker with this.
class ScopedObsContext {
 public:
  explicit ScopedObsContext(const ObsContext& ctx)
      : trace_(probe::Slot::kTrace, ctx.trace), metrics_(probe::Slot::kMetrics, ctx.metrics) {}
  explicit ScopedObsContext(const ObsContext* ctx)
      : ScopedObsContext(ctx != nullptr ? *ctx : ObsContext{}) {}

  ScopedObsContext(const ScopedObsContext&) = delete;
  ScopedObsContext& operator=(const ScopedObsContext&) = delete;

 private:
  probe::Scoped trace_;
  probe::Scoped metrics_;
};

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
    std::size_t max_trace_events = 2'000'000;
  };

  explicit ObsSession(Options options);
  ~ObsSession();

  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  TraceRecorder* trace() { return trace_.get(); }
  MetricsRegistry* metrics() { return metrics_.get(); }
  Profiler* profile() { return profile_ ? &profile_->profiler() : nullptr; }
  HostProfiler* host() { return host_ ? &host_->profiler() : nullptr; }

 private:
  std::unique_ptr<TraceRecorder> trace_;
  std::unique_ptr<MetricsRegistry> metrics_;
  std::unique_ptr<ProfileSession> profile_;
  std::unique_ptr<HostSession> host_;
  ObsContext context_;
  std::unique_ptr<ScopedObsContext> installed_;
};

}  // namespace nvmooc::obs
