// Shared command-line surface for observability: every binary that
// accepts --trace-out / --metrics-out / --log-level funnels through
// these helpers so the flags behave identically everywhere.
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "obs/flight_recorder.hpp"
#include "obs/latency.hpp"
#include "obs/obs.hpp"

namespace nvmooc::obs {

struct CliOptions {
  std::string trace_out;    ///< Chrome trace_event JSON path ("" = off).
  std::string metrics_out;  ///< Metrics registry JSON path ("" = off).
  std::string log_level;    ///< debug|info|warn|error|off ("" = leave as is).
  bool profile = false;     ///< Causal critical-path profiler (--profile).
  bool speed_report = false;  ///< Host telemetry (--speed-report).
  double heartbeat_sec = 5.0;  ///< Heartbeat period (--heartbeat-sec=N).
  /// Tail-exemplar waterfall JSON path (--exemplars-out; "" = off).
  std::string exemplars_out;
  /// K slowest requests kept per class (--exemplars=K).
  std::size_t exemplar_count = 8;
  /// Always-on flight recorder; --no-flight-recorder turns it off.
  bool flight = true;
  /// Flight-dump path (--flight-out; "" = "flight-dump.json" next to cwd).
  std::string flight_out;
};

/// Parses `text`, the value given for the input `name` (a flag as typed,
/// "--size-mib", or a positional argument's name, "dataset_MiB"), as a
/// plain decimal number in [min, max] into `out`. An empty value, a sign,
/// trailing characters, overflow or a non-finite number prints "bad value
/// for NAME: 'VALUE' (...)" to stderr and returns false, leaving `out` as
/// it was.
template <typename T>
bool parse_number_flag(const char* name, std::string_view text, T min, T max, T& out) {
  const char* const last = text.data() + text.size();
  T value{};
  const auto [end, error] = std::from_chars(text.data(), last, value);
  bool ok = !text.empty() && text.front() != '-' && error == std::errc{} && end == last &&
            value >= min && value <= max;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    const int length = static_cast<int>(text.size());
    if constexpr (std::is_floating_point_v<T>) {
      std::fprintf(stderr, "bad value for %s: '%.*s' (want a finite number of at least %g)\n",
                   name, length, text.data(), static_cast<double>(min));
    } else {
      std::fprintf(stderr,
                   "bad value for %s: '%.*s' (want a whole number from %llu to %llu)\n", name,
                   length, text.data(), static_cast<unsigned long long>(min),
                   static_cast<unsigned long long>(max));
    }
    return false;
  }
  out = value;
  return true;
}

/// Applies `--log-level`; returns false (and logs) on an unknown name.
bool apply_log_level(const std::string& name);

/// Builds an ObsSession matching the options: tracing on when trace_out
/// is set, metrics on when metrics_out is set, the causal profiler on
/// when profile is set, null when none is. The session installs itself
/// on the calling thread.
std::unique_ptr<ObsSession> make_session(const CliOptions& options);

/// Writes whatever the session collected to the requested paths.
/// Returns false (and logs) if any file could not be written. Safe to
/// call with a null session (no-op, returns true).
bool write_outputs(ObsSession* session, const CliOptions& options);

/// Up-front check that `path`'s parent directory exists (and is a
/// directory), so a long replay cannot run to completion and then lose
/// its output to a typo'd path. Empty paths pass (the flag is off);
/// failures log an error naming both the flag and the offending path.
bool validate_output_path(const std::string& path, const char* flag);

/// validate_output_path over every output path the options carry
/// (--trace-out, --metrics-out, --exemplars-out, --flight-out).
bool validate_output_paths(const CliOptions& options);

/// Writes the exemplar waterfalls to options.exemplars_out. Returns
/// false (and logs) on I/O failure; no-op when the flag is off.
bool write_exemplars(const LatencyObservatory& observatory,
                     const CliOptions& options);

/// Serialises the flight recorder's postmortem to options.flight_out
/// (default "flight-dump.json") with the given reason, and logs the
/// path plus the ring-occupancy summary. Returns false on I/O failure.
bool dump_flight(const FlightRecorder& recorder, const CliOptions& options,
                 const std::string& reason);

}  // namespace nvmooc::obs
