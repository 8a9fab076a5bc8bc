#include "obs/cli.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>

#include "common/logging.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"

namespace nvmooc::obs {

namespace {

/// Applies --log-level; false (and logs) on an unknown name.
bool apply_log_level(const std::string& name) {
  if (name.empty()) return true;
  LogLevel level;
  if (name == "debug") level = LogLevel::kDebug;
  else if (name == "info") level = LogLevel::kInfo;
  else if (name == "warn") level = LogLevel::kWarn;
  else if (name == "error") level = LogLevel::kError;
  else if (name == "off") level = LogLevel::kOff;
  else {
    NVMOOC_LOG_ERROR("unknown --log-level '%s' (want debug|info|warn|error|off)",
                     name.c_str());
    return false;
  }
  set_log_level(level);
  return true;
}

}  // namespace

bool write_file(const std::string& path, const std::string& what,
                const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for %s output\n", path.c_str(), what.c_str());
    return false;
  }
  out << content << '\n';
  // A small file may still sit in the stream's buffer: its bytes are
  // written, and the write can fail, only at the close.
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s output to %s\n", what.c_str(), path.c_str());
    return false;
  }
  return true;
}

bool parse_cli_options(int& argc, char** argv, CliOptions& out) {
  constexpr double kMaxSec = std::numeric_limits<double>::max();
  constexpr std::size_t kMaxCount = std::numeric_limits<std::size_t>::max();
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto value = [arg](const char* prefix) { return flag_value(arg, prefix); };
    if (const char* v = value("--trace-out=")) out.trace_out = v;
    else if (const char* v = value("--metrics-out=")) out.metrics_out = v;
    else if (const char* v = value("--log-level=")) out.log_level = v;
    else if (const char* v = value("--exemplars-out=")) out.exemplars_out = v;
    else if (const char* v = value("--flight-out=")) out.flight_out = v;
    else if (const char* v = value("--heartbeat-sec=")) {
      if (!parse_number_flag("--heartbeat-sec", v, 0.0, kMaxSec, out.heartbeat_sec)) return false;
    } else if (const char* v = value("--exemplars=")) {
      if (!parse_number_flag("--exemplars", v, std::size_t{0}, kMaxCount, out.exemplars)) {
        return false;
      }
    } else if (!std::strcmp(arg, "--audit")) out.audit = true;
    else if (!std::strcmp(arg, "--profile")) out.profile = true;
    else if (!std::strcmp(arg, "--speed-report")) out.speed_report = true;
    else if (!std::strcmp(arg, "--no-flight-recorder")) out.flight = false;
    else argv[kept++] = argv[i];
  }
  argc = kept;
  if (!apply_log_level(out.log_level)) return false;
  bool ok = validate_output_path(out.trace_out, "--trace-out");
  ok = validate_output_path(out.metrics_out, "--metrics-out") && ok;
  ok = validate_output_path(out.exemplars_out, "--exemplars-out") && ok;
  ok = validate_output_path(out.flight_out, "--flight-out") && ok;
  return ok;
}

bool validate_output_path(const std::string& path, const char* flag) {
  if (path.empty()) return true;
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (parent.empty()) return true;  // Bare filename: cwd always exists.
  std::error_code ec;
  if (!std::filesystem::exists(parent, ec) || ec) {
    std::fprintf(stderr, "%s: parent directory '%s' of output path '%s' does not exist\n", flag,
                 parent.string().c_str(), path.c_str());
    return false;
  }
  if (!std::filesystem::is_directory(parent, ec) || ec) {
    std::fprintf(stderr, "%s: parent path '%s' of output path '%s' is not a directory\n", flag,
                 parent.string().c_str(), path.c_str());
    return false;
  }
  return true;
}

bool write_exports(const CliOptions& options, const TraceRecorder* trace,
                   const MetricsRegistry* metrics, const LatencyObservatory* exemplars) {
  bool ok = true;
  if (trace != nullptr && !options.trace_out.empty()) {
    ok &= write_file(options.trace_out, "trace", trace->chrome_json());
    if (trace->dropped() > 0) {
      NVMOOC_LOG_WARN("trace buffer overflowed: %llu events dropped",
                      static_cast<unsigned long long>(trace->dropped()));
    }
  }
  if (metrics != nullptr && !options.metrics_out.empty()) {
    ok &= write_file(options.metrics_out, "metrics", metrics->json());
  }
  if (exemplars != nullptr && !options.exemplars_out.empty()) {
    if (write_file(options.exemplars_out, "exemplar", exemplars->waterfall_json())) {
      NVMOOC_LOG_INFO("wrote %zu tail exemplar(s) (of %llu requests observed) to %s",
                      exemplars->exemplars().size(),
                      static_cast<unsigned long long>(exemplars->observed()),
                      options.exemplars_out.c_str());
    } else {
      ok = false;
    }
  }
  return ok;
}

bool dump_flight(const FlightRecorder& recorder, const CliOptions& options,
                 const std::string& reason, const std::string& cell) {
  const std::string path =
      !cell.empty() ? options.flight_out + "flight-" + cell + ".json"
      : options.flight_out.empty() ? "flight-dump.json" : options.flight_out;
  if (!write_file(path, "flight-recorder", recorder.dump_json(reason))) {
    return false;
  }
  NVMOOC_LOG_ERROR("flight recorder dumped to %s (%s): %s", path.c_str(),
                   reason.c_str(), recorder.summary().c_str());
  return true;
}

}  // namespace nvmooc::obs
