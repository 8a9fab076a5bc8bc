// Shared plumbing for the per-figure benchmark binaries: the standard OoC
// replay trace, the per-replay session harness, and result formatting.
//
// Every binary follows the same pattern: register one google-benchmark
// entry per configuration (so `--benchmark_filter` works and counters are
// machine-readable), collect the ExperimentResults, and print the
// paper-shaped table after the run.
#pragma once

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "check/audit.hpp"
#include "common/shard_domain.hpp"
#include "cluster/configs.hpp"
#include "cluster/engine.hpp"
#include "common/table.hpp"
#include "obs/cli.hpp"
#include "obs/json.hpp"
#include "ooc/workload.hpp"

namespace nvmooc::bench {

/// Observability and mode flags shared by the bench binaries. They are
/// stripped from argv *before* benchmark::Initialize so google-benchmark
/// never sees them.
struct BenchOptions {
  /// The main-thread session's flags. --profile and --speed-report are
  /// per-replay (profile_enabled(), speed_enabled()) and stay off here: a
  /// main-thread profiler would be shadowed by every replay's own.
  obs::CliOptions obs;
  bool quick = false;          ///< Smaller workload for CI smoke runs.
  bool audit = false;          ///< Invariant-audit every replay (see src/check).
  std::size_t exemplars = 0;   ///< --exemplars=K: per-replay tail reservoirs.
  std::string headline_out;    ///< bench_headline JSON path override.
  std::string results_out;     ///< BENCH_<figure>.json path override.
};

/// Audit mode state shared by the bench harness: whether --audit was
/// passed, and how many invariant violations the audited replays
/// accumulated (a nonzero total fails the binary).
inline bool& audit_enabled() {
  SIM_SHARD_SHARED("set once while parsing argv before any worker thread starts; read-only during replays")
  static bool enabled = false;
  return enabled;
}

inline std::atomic<std::uint64_t>& audit_violations() {
  SIM_SHARD_SHARED("relaxed atomic tally of audit violations across sweep workers; only read after the pool drains")
  static std::atomic<std::uint64_t> total{0};
  return total;
}

/// Whether --profile was passed: each replay then runs under its own
/// obs::ProfileSession (the profiler is per-replay state, like the
/// auditor) and the critical-path report lands in its ExperimentResult.
inline bool& profile_enabled() {
  SIM_SHARD_SHARED("set once while parsing argv before any worker thread starts; read-only during replays")
  static bool enabled = false;
  return enabled;
}

/// Whether --speed-report was passed: each replay then runs under its own
/// obs::HostSession and the host-telemetry report (events/sec, wall-time
/// attribution, memory) lands in its ExperimentResult.
inline bool& speed_enabled() {
  SIM_SHARD_SHARED("set once while parsing argv before any worker thread starts; read-only during replays")
  static bool enabled = false;
  return enabled;
}

/// --heartbeat-sec value for --speed-report sessions (<= 0 logs a
/// heartbeat on every progress call — what CI uses to force a non-empty
/// heartbeat log on fast replays).
inline double& heartbeat_sec() {
  SIM_SHARD_SHARED("set once while parsing argv before any worker thread starts; read-only during replays")
  static double sec = 5.0;
  return sec;
}

/// Whether the always-on flight recorder rides along with every replay
/// (--no-flight-recorder turns it off — what the CI overhead guard
/// compares against).
inline bool& flight_enabled() {
  SIM_SHARD_SHARED("set once while parsing argv before any worker thread starts; read-only during replays")
  static bool enabled = true;
  return enabled;
}

/// --flight-out directory/prefix for failure dumps; each failing replay
/// writes "<prefix>flight-<config>-<media>.json".
inline std::string& flight_out_prefix() {
  SIM_SHARD_SHARED("set once while parsing argv before any worker thread starts; read-only during replays")
  static std::string prefix;
  return prefix;
}

/// --exemplars=K: each replay runs under its own obs::LatencySession
/// keeping the K slowest requests per class (0 = off). The reservoirs
/// are discarded afterwards — the point of the flag is the CI
/// determinism gate, which proves exemplar collection over the whole
/// headline grid never perturbs a makespan.
inline std::size_t& exemplars_per_class() {
  SIM_SHARD_SHARED("set once while parsing argv before any worker thread starts; read-only during replays")
  static std::size_t k = 0;
  return k;
}

/// Strips the shared flags from argv. A bad numeric value (see
/// obs::parse_number_flag) exits 1, naming the flag and the value.
inline BenchOptions strip_bench_options(int& argc, char** argv) {
  BenchOptions out;
  const auto number = [](const char* flag, const char* text, auto min, auto& value) {
    using T = std::remove_reference_t<decltype(value)>;
    if (!obs::parse_number_flag(flag, text, min, std::numeric_limits<T>::max(), value)) {
      std::exit(1);
    }
  };
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return std::strncmp(arg, prefix, n) == 0 ? arg + n : nullptr;
    };
    if (const char* v = value("--trace-out=")) out.obs.trace_out = v;
    else if (const char* v = value("--metrics-out=")) out.obs.metrics_out = v;
    else if (const char* v = value("--log-level=")) out.obs.log_level = v;
    else if (const char* v = value("--headline-out=")) out.headline_out = v;
    else if (const char* v = value("--results-out=")) out.results_out = v;
    else if (const char* v = value("--heartbeat-sec=")) number("--heartbeat-sec", v, 0.0, out.obs.heartbeat_sec);
    else if (const char* v = value("--flight-out=")) out.obs.flight_out = v;
    else if (const char* v = value("--exemplars=")) number("--exemplars", v, std::size_t{0}, out.exemplars);
    else if (!std::strcmp(arg, "--no-flight-recorder")) out.obs.flight = false;
    else if (!std::strcmp(arg, "--quick")) out.quick = true;
    else if (!std::strcmp(arg, "--audit")) out.audit = true;
    else if (!std::strcmp(arg, "--profile")) profile_enabled() = true;
    else if (!std::strcmp(arg, "--speed-report")) speed_enabled() = true;
    else argv[kept++] = argv[i];
  }
  argc = kept;
  audit_enabled() = out.audit;
  heartbeat_sec() = out.obs.heartbeat_sec;
  flight_enabled() = out.obs.flight;
  flight_out_prefix() = out.obs.flight_out;
  exemplars_per_class() = out.exemplars;
  return out;
}

/// The standard evaluation workload: an OoC eigensolver I/O pattern —
/// sequential tile sweeps over the dataset with a small Psi checkpoint
/// per sweep (see DESIGN.md, substitution table).
inline const Trace& standard_trace() {
  static const Trace trace = [] {
    SyntheticWorkloadParams params;
    params.dataset_bytes = 256 * MiB;
    params.tile_bytes = 8 * MiB;
    params.sweeps = 2;
    params.checkpoint_bytes = 2 * MiB;
    return synthesize_ooc_trace(params);
  }();
  return trace;
}

/// A quarter-size single-sweep variant of standard_trace() for --quick
/// runs (CI smoke tests): same tile shape, same access pattern, ~8x less
/// simulated I/O.
inline const Trace& quick_trace() {
  static const Trace trace = [] {
    SyntheticWorkloadParams params;
    params.dataset_bytes = 64 * MiB;
    params.tile_bytes = 8 * MiB;
    params.sweeps = 1;
    params.checkpoint_bytes = 2 * MiB;
    return synthesize_ooc_trace(params);
  }();
  return trace;
}

/// Collects results across benchmark invocations, keyed by
/// "<config>/<media>", for the end-of-run table.
class ResultBoard {
 public:
  void record(const ExperimentResult& result) {
    std::lock_guard<std::mutex> lock(mutex_);
    results_[key(result.name, result.media)] = result;
  }

  const ExperimentResult* find(const std::string& config, NvmType media) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = results_.find(key(config, media));
    return it == results_.end() ? nullptr : &it->second;
  }

  static std::string key(const std::string& config, NvmType media) {
    return config + "/" + std::string(to_string(media));
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, ExperimentResult> results_;
};

inline ResultBoard& board() {
  SIM_SHARD_SHARED("magic-static singleton; every ResultBoard method takes its internal mutex")
  static ResultBoard instance;
  return instance;
}

/// Runs one replay under the sessions the flags ask for: auditor,
/// profiler, host telemetry, flight recorder and exemplar reservoirs.
/// Each replay gets its own sessions, since reports are per-replay;
/// benchmarks may run on worker threads, and the thread-local install
/// keeps them independent. An audit failure adds to audit_violations(),
/// prints the report and dumps the flight recorder.
inline ExperimentResult run_replay(const ExperimentConfig& config, const Trace& trace) {
  std::unique_ptr<check::AuditSession> audit;
  if (audit_enabled()) audit = std::make_unique<check::AuditSession>();
  std::unique_ptr<obs::ProfileSession> profile;
  if (profile_enabled()) profile = std::make_unique<obs::ProfileSession>();
  std::unique_ptr<obs::HostSession> host;
  if (speed_enabled()) {
    obs::HostProfiler::Options host_options;
    host_options.heartbeat_sec = heartbeat_sec();
    host = std::make_unique<obs::HostSession>(host_options);
  }
  // Always-on flight recorder: only failing replays pay for a dump.
  std::unique_ptr<obs::FlightSession> flight;
  if (flight_enabled()) flight = std::make_unique<obs::FlightSession>();
  std::unique_ptr<obs::LatencySession> exemplars;
  if (exemplars_per_class() > 0) {
    exemplars = std::make_unique<obs::LatencySession>(exemplars_per_class());
  }
  ExperimentResult result = run_experiment(config, trace);
  if (audit != nullptr && !result.audit.passed()) {
    audit_violations() += result.audit.violation_count;
    std::fprintf(stderr, "AUDIT FAIL %s/%s\n%s\n", config.name.c_str(),
                 std::string(to_string(config.media)).c_str(),
                 result.audit.summary().c_str());
    if (flight != nullptr) {
      obs::CliOptions dump_options;
      dump_options.flight_out = flight_out_prefix() + "flight-" + config.name + "-" +
                                std::string(to_string(config.media)) + ".json";
      obs::dump_flight(flight->recorder(), dump_options, "audit violation");
    }
  }
  return result;
}

/// The bench binary's exit status once its replays are done: under
/// --audit, 3 with the violation total on stderr, or 0 with the pass
/// line; 0 without --audit.
inline int audit_exit_status() {
  if (!audit_enabled()) return 0;
  const std::uint64_t violations = audit_violations().load();
  if (violations > 0) {
    std::fprintf(stderr, "audit: %llu invariant violation(s) across the sweep\n",
                 static_cast<unsigned long long>(violations));
    return 3;
  }
  std::printf("audit: all configurations passed (conservation/causality/"
              "occupancy/ftl)\n");
  return 0;
}

/// Runs one experiment inside a benchmark loop and records it.
inline void run_config_benchmark(benchmark::State& state, const ExperimentConfig& config,
                                 const Trace& trace) {
  for (auto _ : state) {
    const ExperimentResult result = run_replay(config, trace);
    board().record(result);
    state.counters["achieved_MBps"] = result.achieved_mbps;
    state.counters["remaining_MBps"] = result.remaining_mbps;
    state.counters["channel_util"] = result.channel_utilization;
    state.counters["package_util"] = result.package_utilization;
    state.counters["pal4_frac"] = result.pal_fraction[3];
    benchmark::DoNotOptimize(result.makespan);
  }
}

/// Registers config x media benchmarks (single iteration each — one run
/// of the simulator is already statistically stable, it is deterministic).
inline void register_sweep(std::vector<ExperimentConfig> (*configs_for)(NvmType),
                           const std::vector<NvmType>& media_list, const Trace& trace) {
  for (NvmType media : media_list) {
    for (const ExperimentConfig& config : configs_for(media)) {
      const std::string name = config.name + "/" + std::string(to_string(media));
      benchmark::RegisterBenchmark(name.c_str(),
                                   [config, &trace](benchmark::State& state) {
                                     run_config_benchmark(state, config, trace);
                                   })
          ->Unit(benchmark::kMillisecond)
          ->Iterations(1);
    }
  }
}

/// True when every "<config>/<media>" cell of the sweep has a result.
/// Otherwise names the missing cells and `path` on stderr: a results
/// file is written only for a whole sweep, so a partial run (say, under
/// --benchmark_filter) cannot overwrite a checked-in baseline.
inline bool sweep_complete(const std::string& path, const std::vector<NvmType>& media_list,
                           std::vector<ExperimentConfig> (*configs_for)(NvmType)) {
  std::vector<std::string> missing;
  for (NvmType media : media_list) {
    for (const ExperimentConfig& config : configs_for(media)) {
      if (board().find(config.name, media) == nullptr) {
        missing.push_back(ResultBoard::key(config.name, media));
      }
    }
  }
  if (missing.empty()) return true;
  std::fprintf(stderr, "not writing %s: %zu cell(s) of the sweep have no result:",
               path.c_str(), missing.size());
  for (const std::string& cell : missing) std::fprintf(stderr, " %s", cell.c_str());
  std::fprintf(stderr, "\n");
  return false;
}

/// Writes a BENCH_<figure>.json in the same shape as BENCH_headline.json:
/// {schema_version, bench, workload, results: {"<config>/<media>": {...}}}
/// with the per-cell fields chosen by the caller. The checked-in copies
/// are what `simreport diff` compares regenerated sweeps against. Writes
/// nothing and returns false unless the sweep is complete.
template <typename FieldWriter>
bool write_results_json(const std::string& path, const char* bench_name,
                        const char* workload,
                        const std::vector<NvmType>& media_list,
                        std::vector<ExperimentConfig> (*configs_for)(NvmType),
                        FieldWriter&& fields) {
  if (!sweep_complete(path, media_list, configs_for)) return false;
  obs::JsonWriter w;
  w.begin_object();
  w.field("schema_version", std::uint64_t{1});
  w.field("bench", bench_name);
  w.field("workload", workload);
  w.key("results");
  w.begin_object();
  for (NvmType media : media_list) {
    for (const ExperimentConfig& config : configs_for(media)) {
      w.key(ResultBoard::key(config.name, media));
      w.begin_object();
      fields(w, *board().find(config.name, media));
      w.end_object();
    }
  }
  w.end_object();
  w.end_object();

  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for results output\n", path.c_str());
    return false;
  }
  out << w.str() << '\n';
  if (out) std::printf("wrote %s\n", path.c_str());
  return static_cast<bool>(out);
}

/// Prints one figure table: rows = configs, columns = media types, cell =
/// extractor(result).
inline void print_metric_table(const std::string& title,
                               const std::vector<std::string>& config_names,
                               const std::vector<NvmType>& media_list,
                               double (*extract)(const ExperimentResult&),
                               int precision = 1) {
  std::printf("\n== %s ==\n", title.c_str());
  std::vector<std::string> header = {"Configuration"};
  for (NvmType media : media_list) header.emplace_back(to_string(media));
  Table table(header);
  for (const std::string& name : config_names) {
    std::vector<double> row;
    for (NvmType media : media_list) {
      const ExperimentResult* result = board().find(name, media);
      row.push_back(result ? extract(*result) : 0.0);
    }
    table.add_row_numeric(name, row, precision);
  }
  table.print();
}

inline std::vector<std::string> names_of(const std::vector<ExperimentConfig>& configs) {
  std::vector<std::string> names;
  names.reserve(configs.size());
  for (const ExperimentConfig& config : configs) names.push_back(config.name);
  return names;
}

inline std::vector<NvmType> all_media() {
  return {NvmType::kTlc, NvmType::kMlc, NvmType::kSlc, NvmType::kPcm};
}

}  // namespace nvmooc::bench
