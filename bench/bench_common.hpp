// Shared plumbing for the bench binaries: one command line, one set of
// instruments per replay, each cell of a sweep run once, and the
// formatting of the tables.
//
// Every main follows the same pattern:
//
//   Bench bench(argc, argv, Flags::kInstruments);  // parse, reject leftovers
//   bench.register_cells(configs, trace);          // one cell per config
//   return bench.finish([&] { /* print the tables from bench.find() */ });
//
// Each cell runs once (the simulator is deterministic, so one run is
// exact), in registration order, and records its result; the tables are
// printed from those records after the run, so a filtered run
// (--filter=REGEX) prints only the cells it ran. --list prints the cell
// names and runs none.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <regex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/configs.hpp"
#include "cluster/engine.hpp"
#include "cluster/instruments.hpp"
#include "common/table.hpp"
#include "common/wallclock.hpp"
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

/// "<config>/<media>": a cell's name and its key in the results files.
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

/// The flags a bench binary takes besides --filter and --list; any other
/// argument exits 1, naming it.
enum class Flags {
  kNone,         ///< Replays nothing, so takes no instrument flag.
  kInstruments,  ///< The instrument flags (obs::CliOptions, obs/cli.hpp).
  kSweep,        ///< Those, plus --quick and --out-dir=DIR.
};

struct BenchOptions {
  obs::CliOptions obs;
  bool quick = false;           ///< Smaller workload for CI smoke runs.
  std::string out_dir = ".";    ///< Where the BENCH_<name>.json files go.
  /// --filter=REGEX: the cells whose name it matches anywhere
  /// (ECMAScript regex_search) run; the default matches every cell.
  std::regex filter{""};
  /// --list: print the names of the cells --filter selects and run none,
  /// so there is nothing to report or export.
  bool list = false;

  /// `file` inside --out-dir.
  [[nodiscard]] std::string out_path(const std::string& file) const {
    return (std::filesystem::path(out_dir) / file).string();
  }
};

/// One bench binary: its command line, its replays and their results,
/// and its exit status.
class Bench {
 public:
  /// Parses the flags `flags` admits, --filter and --list into `options`,
  /// and exits 1 on a bad value or an argument left over.
  /// Installs the sweep-wide exports: the tracer (--trace-out), the
  /// metrics registry (--metrics-out) and, with --exemplars-out, the
  /// exemplar reservoirs, so each export covers every replay.
  Bench(int argc, char** argv, Flags flags)
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

  /// Adds the cell `name`, which finish() runs once unless --filter
  /// leaves it out.
  void add(std::string name, std::function<void()> run) {
    cells_.emplace_back(std::move(name), std::move(run));
  }

  /// Adds one cell per config, named by cell_name(), that replays it on
  /// `trace` (which must outlive finish()).
  void register_cells(const std::vector<ExperimentConfig>& configs, const Trace& trace) {
    for (const ExperimentConfig& config : configs) {
      add(cell_name(config.name, config.media), [this, config, &trace] { replay(config, trace); });
    }
  }

  /// The recorded result of a cell, or null when it did not run.
  [[nodiscard]] const ExperimentResult* find(const std::string& config, NvmType media) const {
    const auto it = results_.find(cell_name(config, media));
    return it == results_.end() ? nullptr : &it->second;
  }

  /// True when every cell of `configs` has a result. Otherwise names the
  /// missing cells and `path` on stderr: a results file is written only
  /// for a whole sweep, so a partial run (say, under --filter)
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

    if (!obs::write_file(path, "results", w.str())) return false;
    std::printf("wrote %s\n", path.c_str());
    return true;
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

  /// Runs the cells --filter selects, in the order they were added, each
  /// followed by a "<cell>  <wall> ms" line; then `report` (which prints
  /// the tables and may return false to exit 1, as a partial sweep does),
  /// then writes the exports (--trace-out, --metrics-out, ...) of the
  /// cells that ran, either way. Returns the exit status: 1 when the
  /// report or an export failed; else under --audit 3 with the violation
  /// total on stderr, or 0 with the pass line; 0 without --audit. A
  /// listing (--list) prints the selected cells' names and exits 0.
  template <class Report>
  int finish(Report&& report) {
    for (const auto& [name, run] : cells_) {
      if (!std::regex_search(name, options.filter)) continue;
      if (options.list) {
        std::printf("%s\n", name.c_str());
        continue;
      }
      const Time begin = wallclock::now_ns();
      run();
      std::printf("%s  %.1f ms\n", name.c_str(),
                  wallclock::to_seconds(wallclock::now_ns() - begin) * 1e3);
    }
    if (options.list) return 0;
    bool reported = true;
    if constexpr (std::is_void_v<std::invoke_result_t<Report&>>) {
      report();
    } else {
      reported = report();
    }
    if (!exports_.write_exports() || !reported) return 1;
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
  static BenchOptions parse(int argc, char** argv, Flags flags) {
    BenchOptions out;
    if (flags != Flags::kNone && !obs::parse_cli_options(argc, argv, out.obs)) std::exit(1);
    const bool sweep = flags == Flags::kSweep;
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (const char* v = obs::flag_value(arg, "--filter=")) {
        try {
          out.filter = std::regex(v);
        } catch (const std::regex_error& e) {
          std::fprintf(stderr, "bad value for --filter: '%s' (%s)\n", v, e.what());
          std::exit(1);
        }
      } else if (!std::strcmp(arg, "--list")) {
        out.list = true;
      } else if (const char* v = obs::flag_value(arg, "--out-dir="); v && sweep) {
        out.out_dir = v;
      } else if (sweep && !std::strcmp(arg, "--quick")) {
        out.quick = true;
      } else {
        std::fprintf(stderr, "unrecognized argument '%s'\n", arg);
        std::exit(1);
      }
    }
    // Checked before any replay, so a sweep cannot run only to lose its files.
    if (sweep && !obs::validate_output_path(out.out_path("BENCH_headline.json"), "--out-dir")) {
      std::exit(1);
    }
    return out;
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
  std::vector<std::pair<std::string, std::function<void()>>> cells_;
  std::map<std::string, ExperimentResult> results_;
  std::uint64_t violations_ = 0;
};

}  // namespace nvmooc::bench
