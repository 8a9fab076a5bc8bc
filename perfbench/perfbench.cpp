// Replay benchmark driver: builds one workload's trace, replays its
// configurations through the public replay API the way the CLI surfaces
// do by default (flight recorder on; audit, profile, tracing and speed
// report off) and prints one JSON record per line for perfbench/run.py,
// which checks the answers and derives the metrics.
//
//   perfbench_replay --workload=NAME --seed=N --seconds=S --mode=run|trace|digest
//                    [--spans-out=FILE]
//
// run:    repeated set-ups, then round-robin passes over the configs until
//         S seconds are spent; a calibration kernel is timed between
//         consecutive replays so run.py can cancel machine-speed drift.
// trace:  one pass per config of: engine with/without flight recorder,
//         layer driver without/with spans, engine under obs::HostSession.
// digest: one set-up and one replay per config (for regenerating the
//         pinned digests).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/configs.hpp"
#include "cluster/engine.hpp"
#include "common/alloc_counter.hpp"
#include "layer_driver.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/host_profiler.hpp"
#include "ooc/workload.hpp"

namespace {

using namespace nvmooc;
using perfbench::Digest;
using perfbench::Layer;

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---- Calibration kernel ----------------------------------------------------
// A fixed amount of host work of the same character as a replay (sorting
// and ordered-map inserts: compare-heavy, pointer-chasing), on input that
// never changes. Its time tracks the machine's current speed.

constexpr std::size_t kCalibSortLen = 1u << 18;
constexpr std::size_t kCalibMapLen = 1u << 15;

const std::vector<std::uint64_t>& calib_input() {
  static const std::vector<std::uint64_t> input = [] {
    std::vector<std::uint64_t> v(kCalibSortLen);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (auto& e : v) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      e = x;
    }
    return v;
  }();
  return input;
}

/// Runs the kernel; returns its wall time. Aborts if its answer drifts.
double calibrate() {
  static std::uint64_t expected = 0;
  const double t0 = now_s();
  std::vector<std::uint64_t> v = calib_input();
  std::sort(v.begin(), v.end());
  std::map<std::uint64_t, std::uint32_t> m;
  for (std::size_t i = 0; i < kCalibMapLen; ++i) m.emplace(calib_input()[i], i);
  const std::uint64_t check = v[v.size() / 2] ^ m.begin()->first ^ m.rbegin()->second;
  const double t1 = now_s();
  if (expected == 0) expected = check;
  if (check != expected) {
    std::fprintf(stderr, "perfbench: calibration kernel answer changed\n");
    std::exit(3);
  }
  return t1 - t0;
}

/// Runs the kernel after a replay of `replay_s` seconds: once, then again
/// until a tenth of that time is spent, so the run's calibration samples
/// cover its machine-speed regimes in proportion to the replays.
void calibrate_after(double replay_s, std::vector<double>& samples) {
  const double until = now_s() + 0.1 * replay_s;
  do {
    samples.push_back(calibrate());
  } while (now_s() < until);
}

// ---- Workloads -------------------------------------------------------------

struct Workload {
  std::string name;
  std::vector<ExperimentConfig> configs;
  std::optional<SyntheticWorkloadParams> synthetic;  ///< Else a LOBPCG capture.
  // Repeated set-ups in run mode: `setup_first` before the first replay,
  // then `setup_batch` more after every `setup_every` passes, up to
  // `setup_max` in all.
  std::size_t setup_first = 1;
  std::size_t setup_batch = 1;
  std::size_t setup_every = 1;
  std::size_t setup_max = 1;
};

ExperimentConfig config_named(const std::string& name, NvmType media) {
  for (const ExperimentConfig& c : all_configs(media)) {
    if (c.name == name) return c;
  }
  std::fprintf(stderr, "perfbench: no config %s\n", name.c_str());
  std::exit(2);
}

std::optional<Workload> workload_named(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "ooc-pcm") {
    // bench_common.hpp standard_trace(); answers pinned in BENCH_headline.json.
    SyntheticWorkloadParams p;
    p.dataset_bytes = 256 * MiB;
    p.tile_bytes = 8 * MiB;
    p.sweeps = 2;
    p.checkpoint_bytes = 2 * MiB;
    w.synthetic = p;
    for (const char* c : {"ION-GPFS", "CNL-EXT4", "CNL-UFS", "CNL-NATIVE-16"}) {
      w.configs.push_back(config_named(c, NvmType::kPcm));
    }
  } else if (name == "ckpt-nand") {
    SyntheticWorkloadParams p;
    p.dataset_bytes = 64 * MiB;
    p.tile_bytes = 8 * MiB;
    p.sweeps = 8;
    p.checkpoint_bytes = 64 * MiB;
    w.synthetic = p;
    for (const char* c : {"CNL-EXT3", "ION-GPFS", "CNL-UFS"}) {
      w.configs.push_back(config_named(c, NvmType::kMlc));
    }
  } else if (name == "lobpcg-ufs") {
    w.configs.push_back(config_named("CNL-UFS", NvmType::kTlc));
    w.configs.push_back(config_named("CNL-NATIVE-16", NvmType::kMlc));
    w.configs.push_back(config_named("CNL-UFS", NvmType::kPcm));
  } else {
    return std::nullopt;
  }
  if (w.synthetic) {
    // Sub-millisecond set-ups whose time depends on the heap state a
    // replay leaves behind: many before the first replay and many after
    // every pass; run.py takes the median of all of them.
    w.setup_first = 1000;
    w.setup_batch = 200;
    w.setup_max = 100000;
  } else {
    // A capture is a ~2 s LOBPCG solve: one more after every third pass.
    w.setup_every = 3;
    w.setup_max = 4;
  }
  return w;
}

std::string label(const ExperimentConfig& c) {
  return c.name + "/" + std::string(to_string(c.media));
}

struct Prepared {
  Trace trace;
  std::uint64_t operator_applications = 0;
  double lambda0 = 0.0;
  double trace_s = 0.0;  ///< Time in src/ooc producing the trace.
  double construct_s = 0.0;
  std::vector<std::unique_ptr<ReplayEngine>> engines;
};

/// One set-up: build the trace, then construct each config's engine.
Prepared set_up(const Workload& w) {
  Prepared p;
  const double t0 = now_s();
  if (w.synthetic) {
    p.trace = synthesize_ooc_trace(*w.synthetic);
    p.operator_applications = w.synthetic->sweeps;
  } else {
    // bench_lobpcg's parameters, Hamiltonian seed included: other seeds
    // converge in 43-96 iterations, which would change the work per run.
    HamiltonianParams h;
    h.dimension = 12000;
    h.band_width = 48;
    h.seed = 4;
    LobpcgOptions solver;
    solver.block_size = 8;
    solver.tolerance = 1e-5;
    solver.max_iterations = 400;
    CapturedWorkload captured = capture_ooc_trace(h, 512, solver);
    p.trace = std::move(captured.trace);
    p.operator_applications = captured.solution.operator_applications;
    p.lambda0 = captured.solution.eigenvalues.empty() ? 0.0 : captured.solution.eigenvalues[0];
  }
  const double t1 = now_s();
  for (const ExperimentConfig& c : w.configs) p.engines.push_back(std::make_unique<ReplayEngine>(c));
  const double t2 = now_s();
  p.trace_s = t1 - t0;
  p.construct_s = t2 - t1;
  return p;
}

void print_trace_record(const Workload& w, const Prepared& p) {
  const TraceStats s = p.trace.stats();
  std::printf(
      "{\"kind\":\"trace\",\"workload\":\"%s\",\"requests\":%llu,\"bytes\":%llu,"
      "\"read_bytes\":%llu,\"write_bytes\":%llu,\"operator_applications\":%llu,"
      "\"lambda0\":%.17g,\"trace_s\":%.9f,"
      "\"construct_s\":%.9f}\n",
      w.name.c_str(), static_cast<unsigned long long>(s.requests),
      static_cast<unsigned long long>(s.total_bytes.value()),
      static_cast<unsigned long long>(s.read_bytes.value()),
      static_cast<unsigned long long>(s.write_bytes.value()),
      static_cast<unsigned long long>(p.operator_applications), p.lambda0, p.trace_s, p.construct_s);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

struct Timed {
  ExperimentResult result;
  double wall_s = 0.0;
};

/// One replay the way the CLI surfaces run it: a fresh flight recorder
/// (when `flight`), ReplayEngine::run timed through the finished result.
Timed replay(ReplayEngine& engine, const Trace& trace, bool flight) {
  std::unique_ptr<obs::FlightSession> session;
  if (flight) session = std::make_unique<obs::FlightSession>();
  Timed t;
  const double t0 = now_s();
  t.result = engine.run(trace);
  t.wall_s = now_s() - t0;
  return t;
}

void print_error(const char* kind, const std::string& config, const char* what) {
  std::printf("{\"kind\":\"%s\",\"config\":\"%s\",\"error\":\"", kind, config.c_str());
  for (const char* c = what; *c; ++c) {
    if (*c == '"' || *c == '\\') std::putchar('\\');
    std::putchar(*c >= ' ' ? *c : ' ');
  }
  std::printf("\"}\n");
}

// ---- Modes -----------------------------------------------------------------

void print_samples(const char* key, const std::vector<double>& samples) {
  std::printf(",\"%s\":[", key);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    std::printf("%s%.9f", i ? "," : "", samples[i]);
  }
  std::printf("]");
}

int run_mode(const Workload& w, std::uint64_t seed, double seconds) {
  // Set-ups are repeated in batches spread over the run, so their median
  // sees the same machine-speed regimes as the replays do.
  std::vector<double> setup_s;
  const auto timed_set_up = [&] {
    const double t0 = now_s();
    Prepared p = set_up(w);
    setup_s.push_back(now_s() - t0);
    // Each capture is an operation: run.py checks every one.
    if (!w.synthetic || setup_s.size() == 1) print_trace_record(w, p);
    std::fflush(stdout);
    return p;
  };
  const auto set_up_batch = [&](std::size_t n) {
    for (std::size_t i = 0; i < n && setup_s.size() < w.setup_max; ++i) timed_set_up();
  };
  const double start = now_s();
  Prepared prepared = timed_set_up();  // Workload start -> first replay.
  set_up_batch(w.setup_first - 1);

  const Trace& trace = prepared.trace;
  const std::size_t k = w.configs.size();
  const std::size_t rotation = seed % k;
  calibrate();  // Warm the kernel's input and allocator.
  std::vector<double> calib{calibrate()};
  double last_cycle_s = 0.0;
  for (std::size_t pass = 0;; ++pass) {
    // At least two passes; another one only if at least half of it fits.
    if (pass >= 2 && now_s() - start + last_cycle_s / 2 > seconds) break;
    const double cycle_start = now_s();
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t ci = (i + rotation) % k;
      const ExperimentConfig& config = w.configs[ci];
      std::unique_ptr<ReplayEngine> engine = pass == 0
                                                 ? std::move(prepared.engines[ci])
                                                 : std::make_unique<ReplayEngine>(config);
      try {
        const Timed t = replay(*engine, trace, true);
        engine.reset();
        calibrate_after(t.wall_s, calib);
        std::printf(
            "{\"kind\":\"replay\",\"config\":\"%s\",\"pass\":%zu,\"wall_s\":%.9f,"
            "\"aborted\":%s,\"digest\":%s}\n",
            label(config).c_str(), pass, t.wall_s,
            t.result.reliability.aborted ? "true" : "false",
            perfbench::digest_of(t.result).json().c_str());
      } catch (const std::exception& e) {
        print_error("replay", label(config), e.what());
      }
      std::fflush(stdout);
    }
    if ((pass + 1) % w.setup_every == 0) set_up_batch(w.setup_batch);
    last_cycle_s = now_s() - cycle_start;
  }
  std::printf("{\"kind\":\"end\",\"peak_rss_mib\":%.6f", peak_rss_mib());
  print_samples("setup_s", setup_s);
  print_samples("calib_s", calib);
  std::printf("}\n");
  return 0;
}

int digest_mode(const Workload& w) {
  Prepared p = set_up(w);
  print_trace_record(w, p);
  for (std::size_t i = 0; i < w.configs.size(); ++i) {
    const Timed t = replay(*p.engines[i], p.trace, true);
    std::printf("{\"kind\":\"replay\",\"config\":\"%s\",\"pass\":0,\"wall_s\":%.9f,"
                "\"aborted\":%s,\"digest\":%s}\n",
                label(w.configs[i]).c_str(), t.wall_s,
                t.result.reliability.aborted ? "true" : "false",
                perfbench::digest_of(t.result).json().c_str());
  }
  std::printf("{\"kind\":\"end\",\"peak_rss_mib\":%.6f}\n", peak_rss_mib());
  return 0;
}

double construct_seconds(const ExperimentConfig& config, std::unique_ptr<ReplayEngine>& out) {
  const double t0 = now_s();
  out = std::make_unique<ReplayEngine>(config);
  return now_s() - t0;
}

double section_seconds(const obs::HostReport& report, const char* name) {
  for (const obs::HostSectionStat& s : report.sections) {
    if (s.name == name) return s.wall_seconds;
  }
  return 0.0;
}

void write_spans(const std::string& path, const std::vector<perfbench::LayerTrace>& traces) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  out << "config,layer,request,start_ns,dur_ns\n";
  for (const perfbench::LayerTrace& t : traces) {
    for (const perfbench::Span& s : t.spans) {
      out << t.config << ',' << perfbench::layer_name(s.layer) << ',' << s.request << ','
          << s.start_ns << ',' << s.dur_ns << '\n';
    }
  }
}

int trace_mode(const Workload& w, std::uint64_t seed, const std::string& spans_out) {
  Prepared p = set_up(w);
  print_trace_record(w, p);
  const std::size_t k = w.configs.size();
  const std::size_t rotation = seed % k;
  calibrate();
  std::vector<double> calib{calibrate()};
  std::vector<perfbench::LayerTrace> traces;
  for (std::size_t i = 0; i < k; ++i) {
    const ExperimentConfig& config = w.configs[(i + rotation) % k];
    try {
      std::unique_ptr<ReplayEngine> engine;
      std::vector<double> construct;
      construct.push_back(construct_seconds(config, engine));
      const Timed with_flight = replay(*engine, p.trace, true);
      construct.push_back(construct_seconds(config, engine));
      const Timed no_flight = replay(*engine, p.trace, false);
      engine.reset();

      const perfbench::DriverResult plain = [&] {
        obs::FlightSession flight;
        return perfbench::drive(config, p.trace, false);
      }();
      perfbench::DriverResult traced = [&] {
        obs::FlightSession flight;
        return perfbench::drive(config, p.trace, true);
      }();

      construct.push_back(construct_seconds(config, engine));
      // The timeline tally's high-water mark lives as long as the thread;
      // restart it so each config reports its own peak.
      AllocTally& timeline_tally = alloc_tally(AllocDomain::kTimeline);
      timeline_tally.peak_live_bytes = timeline_tally.live_bytes;
      obs::HostReport host;
      {
        obs::HostSession session;
        host = replay(*engine, p.trace, true).result.host;
      }
      engine.reset();
      std::sort(construct.begin(), construct.end());
      calib.push_back(calibrate());

      const Digest engine_digest = perfbench::digest_of(with_flight.result);
      const bool faithful = plain.digest == engine_digest && traced.digest == engine_digest &&
                            perfbench::digest_of(no_flight.result) == engine_digest;
      const perfbench::LayerTrace& lt = traced.trace;
      const auto sec = [&](Layer l) { return lt.seconds[static_cast<int>(l)]; };
      std::printf(
          "{\"kind\":\"layers\",\"config\":\"%s\",\"faithful\":%s,\"aborted\":%s,"
          "\"digest\":%s,\"driver_digest\":%s,"
          "\"engine_flight_s\":%.9f,\"engine_noflight_s\":%.9f,"
          "\"driver_plain_s\":%.9f,\"driver_traced_s\":%.9f,\"construct_s\":%.9f,"
          "\"driver_self_s\":%.9f,\"io_path_submit_s\":%.9f,"
          "\"ssd_read_submit_s\":%.9f,\"ssd_write_submit_s\":%.9f,\"link_transfer_s\":%.9f,"
          "\"device_stats_s\":%.9f,\"device_requests\":%llu,"
          "\"link_transfers\":%llu,\"ftl_writes\":%llu,\"transactions\":%llu,"
          "\"timeline_reservations\":%llu,\"timeline_self_s\":%.9f,"
          "\"controller_self_s\":%.9f,\"timeline_peak_live_mib\":%.6f}\n",
          label(config).c_str(), faithful ? "true" : "false",
          with_flight.result.reliability.aborted ? "true" : "false",
          engine_digest.json().c_str(), traced.digest.json().c_str(), with_flight.wall_s,
          no_flight.wall_s, plain.wall_seconds, traced.wall_seconds, construct[1],
          lt.self_seconds(), sec(Layer::kIoPath), sec(Layer::kSsdRead),
          sec(Layer::kSsdWrite), sec(Layer::kLink), sec(Layer::kDeviceStats),
          static_cast<unsigned long long>(lt.device_requests),
          static_cast<unsigned long long>(lt.link_transfers),
          static_cast<unsigned long long>(lt.ftl_writes),
          static_cast<unsigned long long>(with_flight.result.transactions),
          static_cast<unsigned long long>(
              host.events[static_cast<int>(obs::HostEvent::kTimelineReservation)]),
          section_seconds(host, "timeline"), section_seconds(host, "controller"),
          static_cast<double>(host.timeline_alloc.peak_live_bytes) / static_cast<double>(MiB));
      traces.push_back(std::move(traced.trace));
    } catch (const std::exception& e) {
      print_error("layers", label(config), e.what());
    }
    std::fflush(stdout);
  }
  std::sort(calib.begin(), calib.end());
  std::printf("{\"kind\":\"end\",\"peak_rss_mib\":%.6f,\"calib_s\":%.9f}\n", peak_rss_mib(),
              calib[calib.size() / 2]);
  if (!spans_out.empty()) write_spans(spans_out, traces);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string mode = "run";
  std::string spans_out;
  std::uint64_t seed = 4;
  double seconds = 10.0;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return std::strncmp(argv[i], prefix, n) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--workload=")) workload = v;
    else if (const char* v = value("--mode=")) mode = v;
    else if (const char* v = value("--seed=")) seed = std::strtoull(v, nullptr, 10);
    else if (const char* v = value("--seconds=")) seconds = std::strtod(v, nullptr);
    else if (const char* v = value("--spans-out=")) spans_out = v;
    else {
      std::fprintf(stderr, "perfbench_replay: unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  const std::optional<Workload> w = workload_named(workload);
  if (!w) {
    std::fprintf(stderr, "perfbench_replay: unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  if (mode == "run") return run_mode(*w, seed, seconds);
  if (mode == "trace") return trace_mode(*w, seed, spans_out);
  if (mode == "digest") return digest_mode(*w);
  std::fprintf(stderr, "perfbench_replay: unknown mode '%s'\n", mode.c_str());
  return 2;
}
