#include "cluster/instruments.hpp"

namespace nvmooc {

InstrumentSet::InstrumentSet(const obs::CliOptions& options) : options_(options) {
  if (!options.trace_out.empty()) {
    trace_ = std::make_unique<obs::TraceRecorder>();
    trace_installed_.emplace(probe::Slot::kTrace, trace_.get());
  }
  if (!options.metrics_out.empty()) {
    metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_installed_.emplace(probe::Slot::kMetrics, metrics_.get());
  }
  if (options.audit) audit_.emplace();
  if (options.profile) profile_.emplace();
  if (options.speed_report) {
    obs::HostProfiler::Options host;
    host.heartbeat_sec = options.heartbeat_sec;
    host_.emplace(host);
  }
  if (const std::size_t k = obs::exemplars_per_class(options); k > 0) exemplars_.emplace(k);
  if (options.flight) flight_.emplace();
}

InstrumentSet::~InstrumentSet() = default;

obs::LatencyObservatory* InstrumentSet::observatory() {
  return exemplars_ ? &exemplars_->observatory() : nullptr;
}

obs::FlightRecorder* InstrumentSet::flight() {
  return flight_ ? &flight_->recorder() : nullptr;
}

bool InstrumentSet::write_exports() {
  return obs::write_exports(options_, trace_.get(), metrics_.get(), observatory());
}

check::AuditReport InstrumentSet::conclude(const std::string& abort_reason,
                                           const std::string& cell) {
  const check::AuditReport audit = audit_ ? audit_->auditor().report() : check::AuditReport{};
  if (flight_ && (!audit.passed() || !abort_reason.empty())) {
    const std::string reason = !abort_reason.empty()
                                   ? "fault-injection abort: " + abort_reason
                                   : "audit violation: " + std::to_string(audit.violation_count) +
                                         " invariant violation(s)";
    obs::dump_flight(flight_->recorder(), options_, reason, cell);
  }
  return audit;
}

}  // namespace nvmooc
