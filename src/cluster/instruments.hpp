// The instruments a command line asks for, as one scoped object. Every
// replaying binary builds its instruments here from obs::CliOptions:
// trace_replay one set around its replay, a bench binary one set around
// the whole sweep for the exports and one per replay for the rest.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "check/audit.hpp"
#include "common/probe.hpp"
#include "obs/cli.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/host_profiler.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_recorder.hpp"

namespace nvmooc {

/// Installs on the constructing thread exactly the instruments `options`
/// turns on, for the object's lifetime: the tracer (--trace-out), the
/// metrics registry (--metrics-out), the auditor (--audit), the profiler
/// (--profile), host telemetry (--speed-report), the exemplar reservoirs
/// (exemplars_per_class()) and the flight recorder (unless
/// --no-flight-recorder). A slot it leaves empty keeps whatever an
/// enclosing set installed there, so sets nest.
class InstrumentSet {
 public:
  explicit InstrumentSet(const obs::CliOptions& options);
  ~InstrumentSet();

  InstrumentSet(const InstrumentSet&) = delete;
  InstrumentSet& operator=(const InstrumentSet&) = delete;

  /// The installed instruments; null for the ones that are off.
  [[nodiscard]] obs::TraceRecorder* tracer() const { return trace_.get(); }
  [[nodiscard]] obs::MetricsRegistry* metrics() const { return metrics_.get(); }
  [[nodiscard]] obs::LatencyObservatory* observatory();
  [[nodiscard]] obs::FlightRecorder* flight();

  /// Writes the --trace-out, --metrics-out and --exemplars-out exports
  /// of the instruments this set holds. False (logged) on I/O failure.
  [[nodiscard]] bool write_exports();

  /// After a replay: its audit verdict, read from this set's own auditor
  /// (a disabled, passing report without --audit). When the audit failed
  /// or `abort_reason` names a fault abort, the flight ring goes to disk
  /// (obs::dump_flight; `cell` names a sweep's replay).
  check::AuditReport conclude(const std::string& abort_reason = {},
                              const std::string& cell = {});

 private:
  obs::CliOptions options_;
  // Each owner is declared before its install, so the slot is emptied
  // before the instrument goes.
  std::unique_ptr<obs::TraceRecorder> trace_;
  std::optional<probe::Scoped> trace_installed_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::optional<probe::Scoped> metrics_installed_;
  std::optional<check::AuditSession> audit_;
  std::optional<obs::ProfileSession> profile_;
  std::optional<obs::HostSession> host_;
  std::optional<obs::LatencySession> exemplars_;
  std::optional<obs::FlightSession> flight_;
};

}  // namespace nvmooc
