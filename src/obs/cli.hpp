// The instrument flags every replaying binary shares: trace_replay and
// the bench binaries parse them with parse_cli_options, so a flag means
// the same thing everywhere, and cluster/instruments.hpp's InstrumentSet
// turns them into installed instruments.
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "obs/flight_recorder.hpp"
#include "obs/latency.hpp"

namespace nvmooc::obs {

class MetricsRegistry;
class TraceRecorder;

/// Every field has a default member initializer, so a designated
/// initializer may name any subset.
struct CliOptions {
  std::string trace_out{};    ///< Chrome trace_event JSON path ("" = off).
  std::string metrics_out{};  ///< Metrics registry JSON path ("" = off).
  std::string log_level{};    ///< debug|info|warn|error|off ("" = leave as is).
  bool audit = false;       ///< Invariant auditor (--audit; see src/check).
  bool profile = false;     ///< Causal critical-path profiler (--profile).
  bool speed_report = false;  ///< Host telemetry (--speed-report).
  double heartbeat_sec = 5.0;  ///< Heartbeat period (--heartbeat-sec=N).
  /// Tail-exemplar waterfall JSON path (--exemplars-out; "" = off).
  std::string exemplars_out{};
  /// --exemplars=K: the K slowest requests kept per class. Any K > 0
  /// turns the reservoirs on; 0 means kDefaultExemplars with
  /// --exemplars-out and off without it (exemplars_per_class()).
  std::size_t exemplars = 0;
  /// Always-on flight recorder; --no-flight-recorder turns it off.
  bool flight = true;
  /// --flight-out: the dump path of one replay (default
  /// "flight-dump.json"), or the prefix of a sweep's per-cell dumps
  /// (dump_flight()).
  std::string flight_out{};
};

/// Exemplars kept per class when --exemplars-out comes without --exemplars.
inline constexpr std::size_t kDefaultExemplars = 8;

/// The reservoir size the options ask for; 0 = no reservoirs.
inline std::size_t exemplars_per_class(const CliOptions& options) {
  if (options.exemplars > 0) return options.exemplars;
  return options.exemplars_out.empty() ? 0 : kDefaultExemplars;
}

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

/// The text after `prefix` when `arg` starts with it ("--size-mib=8"
/// and "--size-mib=" give "8"), else null.
inline const char* flag_value(const char* arg, const char* prefix) {
  const std::size_t n = std::strlen(prefix);
  return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
}

/// Moves the instrument flags out of argv into `out`, keeping argv[0]
/// and every other argument in order, then applies --log-level and checks
/// that every output path's directory exists, so a long replay cannot
/// lose its output to a typo. Every occurrence of a numeric flag goes
/// through parse_number_flag; the last occurrence wins. Returns false,
/// with the reason on stderr, on a bad value, an unknown log level or a
/// missing directory.
bool parse_cli_options(int& argc, char** argv, CliOptions& out);

/// Up-front check that `path`'s parent directory exists (and is a
/// directory). Empty paths pass (the flag is off); a failure prints an
/// error naming both the flag and the offending path on stderr, whatever
/// --log-level says: it decides the exit status.
bool validate_output_path(const std::string& path, const char* flag);

/// Writes `content` and a newline to `path`, then closes the file.
/// Returns false, with an error naming `what` and `path` on stderr
/// whatever --log-level says, when the file cannot be opened or the
/// write or the close fails.
bool write_file(const std::string& path, const std::string& what, const std::string& content);

/// Writes --trace-out, --metrics-out and --exemplars-out for the
/// instruments given (null = skip). Returns false (and logs) if any file
/// could not be written.
bool write_exports(const CliOptions& options, const TraceRecorder* trace,
                   const MetricsRegistry* metrics, const LatencyObservatory* exemplars);

/// Serialises the flight recorder's postmortem with the given reason and
/// logs the path plus the ring-occupancy summary. One replay (`cell`
/// empty) dumps to --flight-out, default "flight-dump.json"; a sweep's
/// cell dumps to "<--flight-out>flight-<cell>.json". Returns false on
/// I/O failure.
bool dump_flight(const FlightRecorder& recorder, const CliOptions& options,
                 const std::string& reason, const std::string& cell = {});

}  // namespace nvmooc::obs
