#include "obs/obs.hpp"

namespace nvmooc::obs {

ObsSession::ObsSession(Options options) {
  if (options.trace) {
    trace_ = std::make_unique<TraceRecorder>();
  }
  if (options.metrics) {
    metrics_ = std::make_unique<MetricsRegistry>();
  }
  if (options.profile) {
    profile_ = std::make_unique<ProfileSession>();
  }
  if (options.speed) {
    HostProfiler::Options host_options;
    host_options.heartbeat_sec = options.heartbeat_sec;
    host_ = std::make_unique<HostSession>(host_options);
  }
  if (trace_ || metrics_) {
    installed_trace_.emplace(probe::Slot::kTrace, trace_.get());
    installed_metrics_.emplace(probe::Slot::kMetrics, metrics_.get());
  }
}

ObsSession::~ObsSession() = default;

}  // namespace nvmooc::obs
