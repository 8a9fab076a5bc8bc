// Shared plumbing for the bench binaries: one command line, one set of
// instruments per replay, each point of a sweep run once, and the
// formatting of the tables.
//
// Every main follows the same pattern:
//
//   Bench bench(argc, argv, Flags::kInstruments);  // strip, Initialize, reject leftovers
//   bench.register_cells(configs, trace);          // one benchmark per point
//   return bench.finish([&] { /* print the tables from bench.find() */ });
//
// Each registered point runs once, as one single-iteration google
// benchmark (so `--benchmark_filter` works and counters are
// machine-readable), and records its result; the tables are printed
// from those records after the run, so a filtered run prints only the
// points it ran.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/configs.hpp"
#include "cluster/engine.hpp"
#include "cluster/instruments.hpp"
#include "common/table.hpp"
#include "obs/cli.hpp"
#include "obs/json.hpp"
#include "ooc/workload.hpp"

namespace nvmooc::bench {

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

inline std::vector<NvmType> all_media() {
  return {NvmType::kTlc, NvmType::kMlc, NvmType::kSlc, NvmType::kPcm};
}

/// "<config>/<media>": a cell's benchmark name and its key in the
/// results files.
inline std::string cell_name(const std::string& config, NvmType media) {
  return config + "/" + std::string(to_string(media));
}

/// The configs of `configs_for` over `media_list`, media-major.
inline std::vector<ExperimentConfig> sweep(std::vector<ExperimentConfig> (*configs_for)(NvmType),
                                           const std::vector<NvmType>& media_list) {
  std::vector<ExperimentConfig> configs;
  for (NvmType media : media_list) {
    for (ExperimentConfig& config : configs_for(media)) configs.push_back(std::move(config));
  }
  return configs;
}

inline std::vector<std::string> names_of(const std::vector<ExperimentConfig>& configs) {
  std::vector<std::string> names;
  names.reserve(configs.size());
  for (const ExperimentConfig& config : configs) names.push_back(config.name);
  return names;
}

/// Registers `point(state)` as one single-iteration benchmark: one run of
/// the simulator is already exact, it is deterministic.
template <class Point>
void register_point(const std::string& name, Point point) {
  benchmark::RegisterBenchmark(name.c_str(),
                               [point](benchmark::State& state) {
                                 for (auto _ : state) point(state);
                               })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1);
}

/// The flags a bench binary takes besides google-benchmark's own; any
/// other argument exits 1, naming it.
enum class Flags {
  kNone,         ///< Replays nothing, so takes no instrument flag.
  kInstruments,  ///< The instrument flags (obs::CliOptions, obs/cli.hpp).
  kSweep,        ///< Those, plus --quick and --out-dir=DIR.
};

struct BenchOptions {
  obs::CliOptions obs;
  bool quick = false;           ///< Smaller workload for CI smoke runs.
  std::string out_dir = ".";    ///< Where the BENCH_<name>.json files go.
  /// google-benchmark's --benchmark_list_tests: the run prints the point
  /// names and runs none, so there is nothing to report or export.
  bool list_tests = false;

  /// `file` inside --out-dir.
  [[nodiscard]] std::string out_path(const std::string& file) const {
    return (std::filesystem::path(out_dir) / file).string();
  }
};

/// One bench binary: its command line, its replays and their results,
/// and its exit status.
class Bench {
 public:
  /// Strips the flags `flags` admits into `options`, initialises google
  /// benchmark, and exits 1 on a bad value or an argument left over.
  /// Installs the sweep-wide exports: the tracer (--trace-out), the
  /// metrics registry (--metrics-out) and, with --exemplars-out, the
  /// exemplar reservoirs, so each export covers every replay.
  Bench(int& argc, char** argv, Flags flags)
      : options(parse(argc, argv, flags)), exports_(export_options(options.obs)) {}

  /// The workload --quick selects.
  [[nodiscard]] const Trace& trace() const {
    return options.quick ? quick_trace() : standard_trace();
  }

  /// Replays `config` under its own instruments and records the result.
  ExperimentResult replay(const ExperimentConfig& config, const Trace& trace) {
    InstrumentSet instruments(replay_options());
    ExperimentResult result = run_experiment(config, trace);
    settle(instruments, cell_name(config.name, config.media),
           result.reliability.abort_reason);
    results_[cell_name(result.name, result.media)] = result;
    return result;
  }

  /// The shared-ION replay of `clients` copies of `trace`, under its own
  /// instruments.
  MultiClientResult replay(const ExperimentConfig& config, const Trace& trace,
                           unsigned clients) {
    InstrumentSet instruments(replay_options());
    MultiClientResult result = run_multi_client(config, trace, clients);
    settle(instruments, cell_name(config.name, config.media) + "/x" + std::to_string(clients),
           {});
    return result;
  }

  /// Registers one benchmark per config, named by cell_name(), that
  /// replays it on `trace` (which must outlive finish()).
  void register_cells(const std::vector<ExperimentConfig>& configs, const Trace& trace) {
    for (const ExperimentConfig& config : configs) {
      register_point(cell_name(config.name, config.media),
                     [this, config, &trace](benchmark::State& state) {
                       const ExperimentResult result = replay(config, trace);
                       state.counters["achieved_MBps"] = result.achieved_mbps;
                       state.counters["remaining_MBps"] = result.remaining_mbps;
                       state.counters["channel_util"] = result.channel_utilization;
                       state.counters["package_util"] = result.package_utilization;
                       state.counters["pal4_frac"] = result.pal_fraction[3];
                     });
    }
  }

  /// The recorded result of a cell, or null when it did not run.
  [[nodiscard]] const ExperimentResult* find(const std::string& config, NvmType media) const {
    const auto it = results_.find(cell_name(config, media));
    return it == results_.end() ? nullptr : &it->second;
  }

  /// True when every cell of `configs` has a result. Otherwise names the
  /// missing cells and `path` on stderr: a results file is written only
  /// for a whole sweep, so a partial run (say, under --benchmark_filter)
  /// cannot overwrite a checked-in baseline.
  bool sweep_complete(const std::string& path,
                      const std::vector<ExperimentConfig>& configs) const {
    std::vector<std::string> missing;
    for (const ExperimentConfig& config : configs) {
      if (find(config.name, config.media) == nullptr) {
        missing.push_back(cell_name(config.name, config.media));
      }
    }
    if (missing.empty()) return true;
    std::fprintf(stderr, "not writing %s: %zu cell(s) of the sweep have no result:",
                 path.c_str(), missing.size());
    for (const std::string& cell : missing) std::fprintf(stderr, " %s", cell.c_str());
    std::fprintf(stderr, "\n");
    return false;
  }

  /// Writes <--out-dir>/BENCH_<bench_name>.json: {schema_version, bench,
  /// workload, whatever `preamble` writes, results: {"<config>/<media>":
  /// {...}}} with the per-cell fields `fields` writes. The checked-in
  /// copies are what `simreport diff` compares regenerated sweeps
  /// against. Writes nothing and returns false unless the sweep is
  /// complete.
  template <typename FieldWriter>
  bool write_results_json(const std::string& bench_name,
                          const std::vector<ExperimentConfig>& configs, FieldWriter&& fields,
                          const std::function<void(obs::JsonWriter&)>& preamble = {}) const {
    const std::string path = options.out_path("BENCH_" + bench_name + ".json");
    if (!sweep_complete(path, configs)) return false;
    obs::JsonWriter w;
    w.begin_object();
    w.field("schema_version", std::uint64_t{1});
    w.field("bench", bench_name);
    w.field("workload", options.quick ? "quick" : "standard");
    if (preamble) preamble(w);
    w.key("results");
    w.begin_object();
    for (const ExperimentConfig& config : configs) {
      w.key(cell_name(config.name, config.media));
      w.begin_object();
      fields(w, *find(config.name, config.media));
      w.end_object();
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

  /// Prints one figure table: rows = configs, columns = media types,
  /// cell = extract(result), 0 for a cell that did not run.
  void print_metric_table(const std::string& title, const std::vector<std::string>& config_names,
                          const std::vector<NvmType>& media_list,
                          double (*extract)(const ExperimentResult&), int precision = 1) const {
    std::printf("\n== %s ==\n", title.c_str());
    std::vector<std::string> header = {"Configuration"};
    for (NvmType media : media_list) header.emplace_back(to_string(media));
    Table table(header);
    for (const std::string& name : config_names) {
      std::vector<double> row;
      for (NvmType media : media_list) {
        const ExperimentResult* result = find(name, media);
        row.push_back(result ? extract(*result) : 0.0);
      }
      table.add_row_numeric(name, row, precision);
    }
    table.print();
  }

  /// Runs the registered points, then `report` (which prints the tables
  /// and may return false to exit 1), then writes the sweep's exports.
  /// Returns the exit status: under --audit 3 with the violation total
  /// on stderr, or 0 with the pass line; 0 without --audit. A listing
  /// (--benchmark_list_tests) prints the point names and exits 0.
  template <class Report>
  int finish(Report&& report) {
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    if (options.list_tests) return 0;
    if constexpr (std::is_void_v<std::invoke_result_t<Report&>>) {
      report();
    } else if (!report()) {
      return 1;
    }
    if (!exports_.write_exports()) return 1;
    if (!options.obs.audit) return 0;
    if (violations_ > 0) {
      std::fprintf(stderr, "audit: %llu invariant violation(s) across the sweep\n",
                   static_cast<unsigned long long>(violations_));
      return 3;
    }
    std::printf("audit: all configurations passed (conservation/causality/"
                "occupancy/ftl)\n");
    return 0;
  }

  BenchOptions options;

 private:
  static BenchOptions parse(int& argc, char** argv, Flags flags) {
    BenchOptions out;
    out.list_tests = lists_tests(argc, argv);
    if (flags != Flags::kNone && !obs::parse_cli_options(argc, argv, out.obs)) std::exit(1);
    if (flags == Flags::kSweep) {
      int kept = 1;
      for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (const char* v = obs::flag_value(arg, "--out-dir=")) out.out_dir = v;
        else if (!std::strcmp(arg, "--quick")) out.quick = true;
        else argv[kept++] = argv[i];
      }
      argc = kept;
      // Checked before any replay, so a sweep cannot run only to lose its files.
      if (!obs::validate_output_path(out.out_path("BENCH_headline.json"), "--out-dir")) {
        std::exit(1);
      }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) std::exit(1);
    return out;
  }

  /// Whether google-benchmark will only list the points, which it has no
  /// accessor for: every --benchmark_list_tests[=VALUE] in turn, read the
  /// way google-benchmark reads a bool flag.
  static bool lists_tests(int argc, char** argv) {
    const auto truthy = [](std::string value) {
      if (value.size() == 1) {
        const char c = value[0];
        return std::isalnum(static_cast<unsigned char>(c)) != 0 && !std::strchr("0fFnN", c);
      }
      for (char& c : value) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      return value != "false" && value != "no" && value != "off";
    };
    bool list = false;
    for (int i = 1; i < argc; ++i) {
      if (!std::strcmp(argv[i], "--benchmark_list_tests")) {
        list = true;
      } else if (const char* v = obs::flag_value(argv[i], "--benchmark_list_tests=")) {
        list = truthy(v);
      }
    }
    return list;
  }

  /// The instrument flags of the sweep-wide set: its exports only.
  static obs::CliOptions export_options(const obs::CliOptions& all) {
    obs::CliOptions exports;
    exports.trace_out = all.trace_out;
    exports.metrics_out = all.metrics_out;
    if (!all.exemplars_out.empty()) {
      exports.exemplars_out = all.exemplars_out;
      exports.exemplars = all.exemplars;
    }
    exports.flight = false;
    return exports;
  }

  /// Every instrument flag but the sweep-wide exports.
  [[nodiscard]] obs::CliOptions replay_options() const {
    obs::CliOptions each = options.obs;
    each.trace_out.clear();
    each.metrics_out.clear();
    if (!each.exemplars_out.empty()) {
      each.exemplars_out.clear();
      each.exemplars = 0;
    }
    return each;
  }

  /// An audit failure adds to the sweep's total and prints the report;
  /// the instruments dump the flight ring to
  /// "<--flight-out>flight-<cell>.json", with '/' read as '-'.
  void settle(InstrumentSet& instruments, const std::string& cell,
              const std::string& abort_reason) {
    std::string file = cell;
    std::replace(file.begin(), file.end(), '/', '-');
    const check::AuditReport audit = instruments.conclude(abort_reason, file);
    if (audit.passed()) return;
    violations_ += audit.violation_count;
    std::fprintf(stderr, "AUDIT FAIL %s\n%s\n", cell.c_str(), audit.summary().c_str());
  }

  InstrumentSet exports_;
  std::map<std::string, ExperimentResult> results_;
  std::uint64_t violations_ = 0;
};

}  // namespace nvmooc::bench
