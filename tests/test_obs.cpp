// Observability layer tests: JSON writer/parser round-trips, the metrics
// registry, trace recording, the ExperimentResult::to_json golden file,
// and a Perfetto-format smoke test over a fault-injected replay.
//
// Regenerate the golden files after an intentional schema change with:
//   NVMOOC_REGEN_GOLDEN=1 ./build/tests/test_obs --gtest_filter='*Golden*'
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/audit.hpp"
#include "cluster/configs.hpp"
#include "cluster/engine.hpp"
#include "cluster/instruments.hpp"
#include "common/probe.hpp"
#include "fs/presets.hpp"
#include "interval_counter.hpp"
#include "obs/cli.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/latency.hpp"
#include "obs/host_profiler.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_recorder.hpp"
#include "ooc/workload.hpp"
#include "trace/synthetic.hpp"

namespace nvmooc {
namespace {

// An InstrumentSet installs the tracer and the metrics registry for an
// export path; the tests read them in memory and never write the file.
constexpr const char* kUnwritten = "unwritten.json";

// ---------- JSON ---------------------------------------------------------

TEST(Json, WriterProducesParseableNesting) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("name", "CNL \"UFS\"\n");
  w.field("count", std::uint64_t{42});
  w.field("ratio", 0.25);
  w.field("flag", true);
  w.key("list");
  w.begin_array();
  w.value(std::int64_t{-3});
  w.raw("null");
  w.begin_object();
  w.field("inner", "x");
  w.end_object();
  w.end_array();
  w.end_object();

  const obs::JsonValue v = obs::parse_json(w.str());
  ASSERT_EQ(v.kind, obs::JsonValue::Kind::kObject);
  EXPECT_EQ(v.find("name")->string, "CNL \"UFS\"\n");
  EXPECT_DOUBLE_EQ(v.find("count")->number, 42.0);
  EXPECT_DOUBLE_EQ(v.find("ratio")->number, 0.25);
  EXPECT_TRUE(v.find("flag")->boolean);
  const obs::JsonValue& list = *v.find("list");
  ASSERT_EQ(list.array.size(), 3u);
  EXPECT_DOUBLE_EQ(list.array[0].number, -3.0);
  EXPECT_EQ(list.array[1].kind, obs::JsonValue::Kind::kNull);
  EXPECT_EQ(list.array[2].find("inner")->string, "x");
}

TEST(Json, EscapesControlCharactersAndRejectsGarbage) {
  EXPECT_EQ(obs::json_escape(std::string("a\tb\x01")), "a\\tb\\u0001");
  EXPECT_THROW(obs::parse_json("{\"unterminated\": "), std::runtime_error);
  EXPECT_THROW(obs::parse_json("[1, 2,]"), std::runtime_error);
  EXPECT_THROW(obs::parse_json(""), std::runtime_error);
}

TEST(Json, NumbersStayFinite) {
  EXPECT_EQ(obs::json_number(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(obs::json_number(std::nan("")), "0");
  const obs::JsonValue v = obs::parse_json("[1e3, -2.5, 0]");
  EXPECT_DOUBLE_EQ(v.array[0].number, 1000.0);
  EXPECT_DOUBLE_EQ(v.array[1].number, -2.5);
}

// ---------- metrics ------------------------------------------------------

TEST(Metrics, LogHistogramQuantilesTrackSamples) {
  obs::LogHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i));
  // Log-bucketed: relative error within one sub-bucket (~6%).
  EXPECT_NEAR(h.quantile(0.5), 500.0, 500.0 * 0.07);
  EXPECT_NEAR(h.quantile(0.99), 990.0, 990.0 * 0.07);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_EQ(h.count(), 1000u);
}

TEST(Metrics, EmptyLogHistogramQuantileIsZero) {
  obs::LogHistogram h;
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
  const obs::HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

TEST(Metrics, LogHistogramHandlesZeroAndNegative) {
  obs::LogHistogram h;
  h.record(0.0);
  h.record(-5.0);  // Clamped to 0.
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
}

TEST(Metrics, TimeSeriesDecimatesButKeepsOutline) {
  obs::TimeSeries series(64);
  for (int i = 0; i < 10'000; ++i) {
    series.sample(Time{i} * 1000000, static_cast<double>(i));
  }
  EXPECT_LT(series.points().size(), 64u);
  EXPECT_GE(series.points().size(), 16u);
  // Points stay in time order and span the full range.
  const auto& points = series.points();
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_LT(points[i - 1].first, points[i].first);
  }
  EXPECT_EQ(points.front().first, Time{0});
}

TEST(Metrics, RegistrySnapshotCoversAllKinds) {
  obs::MetricsRegistry registry;
  registry.counter("a.count").add(3);
  registry.gauge("b.gauge").set(1.5);
  registry.histogram("c.hist").record(10.0);
  const auto snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  std::map<std::string, std::string> kinds;
  for (const auto& m : snapshot) kinds[m.name] = m.kind;
  EXPECT_EQ(kinds["a.count"], "counter");
  EXPECT_EQ(kinds["b.gauge"], "gauge");
  EXPECT_EQ(kinds["c.hist"], "histogram");
  // The JSON dump parses.
  EXPECT_NO_THROW(obs::parse_json(registry.json()));
}

TEST(Metrics, IoPathCountersSkipZeroSizeRequests) {
  // The fs.* / ufs.* counters derive from the engine's POSIX event. A
  // zero-size request never reaches the I/O path, so it counts nothing,
  // and a counter for traffic that never happened does not exist.
  Trace trace;
  trace.add(NvmOp::kRead, Bytes{}, 256 * KiB);
  trace.add(NvmOp::kRead, 256 * KiB, Bytes{});
  trace.add(NvmOp::kRead, 256 * KiB, 256 * KiB);
  for (const bool ufs : {false, true}) {
    const ExperimentConfig config = ufs ? cnl_ufs_config(NvmType::kSlc)
                                        : cnl_fs_config(ext4_behavior(), NvmType::kSlc);
    InstrumentSet instruments({.metrics_out = kUnwritten, .profile = true, .flight = false});
    const ExperimentResult result = run_experiment(config, trace);
    std::map<std::string, double> counters;
    for (const obs::MetricSnapshot& m : instruments.metrics()->snapshot()) {
      counters[m.name] = m.value;
    }
    const std::string layer = ufs ? "ufs" : "fs";
    EXPECT_EQ(counters[layer + ".requests_in"], 2.0) << config.name;
    EXPECT_EQ(counters.count("fs.internal_requests"), 0u) << config.name;
    EXPECT_EQ(static_cast<double>(result.profile.io_path_device_requests),
              counters[layer + ".requests_out"])
        << config.name;
  }
}

// ---------- trace recorder ----------------------------------------------

TEST(TraceRecorder, ExportsParseableChromeJson) {
  obs::TraceRecorder recorder;
  const std::uint32_t track = recorder.track("unit.track");
  recorder.span(track, "test", "parent", 100 * kMicrosecond, 50 * kMicrosecond);
  recorder.span(track, "test", "child", 110 * kMicrosecond, 10 * kMicrosecond,
                {obs::SpanArg::integer("bytes", 4096)});
  recorder.counter(recorder.track("unit.counter"), "test", "depth",
                   100 * kMicrosecond, 3.0);
  const obs::JsonValue v = obs::parse_json(recorder.chrome_json());
  const obs::JsonValue* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_parent = false, saw_child = false, saw_counter = false, saw_meta = false;
  for (const obs::JsonValue& e : events->array) {
    const std::string ph = e.find("ph")->string;
    const std::string name = e.find("name")->string;
    if (name == "parent" && ph == "X") saw_parent = true;
    if (name == "child" && ph == "X") {
      saw_child = true;
      EXPECT_DOUBLE_EQ(e.find("args")->find("bytes")->number, 4096.0);
    }
    if (name == "depth" && ph == "C") saw_counter = true;
    if (ph == "M") saw_meta = true;
  }
  EXPECT_TRUE(saw_parent);
  EXPECT_TRUE(saw_child);
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_meta);
}

// Spans named `name` in the recorder's Chrome trace export.
std::size_t count_spans(const obs::TraceRecorder& recorder, const std::string& name) {
  const obs::JsonValue v = obs::parse_json(recorder.chrome_json());
  std::size_t n = 0;
  for (const obs::JsonValue& e : v.find("traceEvents")->array) {
    n += e.find("ph")->string == "X" && e.find("name")->string == name;
  }
  return n;
}

TEST(TraceRecorder, DropsBeyondCapAndCounts) {
  obs::TraceRecorder recorder;
  const std::uint32_t track = recorder.track("t");
  for (std::size_t i = 0; i < obs::TraceRecorder::kMaxEvents + 15; ++i) {
    recorder.span(track, "test", "s", Time{}, kMicrosecond);
  }
  EXPECT_EQ(recorder.dropped(), 15u);
}

TEST(TraceRecorder, WorkerThreadSpansLandInSameRecorder) {
  obs::TraceRecorder recorder;
  obs::MetricsRegistry registry;
  const probe::Scoped scope(probe::Slot::kTrace, &recorder);
  ASSERT_EQ(obs::tracer(), &recorder);

  std::thread worker([&] {
    EXPECT_EQ(obs::tracer(), nullptr);  // Fresh thread: nothing installed.
    const probe::Scoped trace(probe::Slot::kTrace, &recorder);
    const probe::Scoped metrics(probe::Slot::kMetrics, &registry);
    obs::TraceRecorder* r = obs::tracer();
    ASSERT_NE(r, nullptr);
    r->span(r->track("worker"), "test", "from_worker", Time{}, kMicrosecond);
    obs::metrics()->counter("worker.events").add();
  });
  worker.join();
  EXPECT_EQ(count_spans(recorder, "from_worker"), 1u);
  EXPECT_EQ(registry.counter("worker.events").value(), 1u);
}

// ---------- ExperimentResult::to_json golden ----------------------------

/// A fully hand-filled result so the golden file exercises every section
/// deterministically (no simulator run involved).
ExperimentResult golden_fixture() {
  ExperimentResult r;
  r.name = "CNL-UFS";
  r.media = NvmType::kTlc;
  r.makespan = 21 * kMillisecond + 360 * kMicrosecond;
  r.payload_bytes = 64 * MiB;
  r.internal_bytes = 2 * MiB;
  r.device_requests = 8;
  r.transactions = 8192;
  r.achieved_mbps = 3142.0;
  r.remaining_mbps = 58.5;
  r.channel_utilization = 0.995;
  r.package_utilization = 0.345;
  r.read_latency.count = 8;
  r.read_latency.min = 2000.0;
  r.read_latency.p50 = 2100.5;
  r.read_latency.p90 = 2600.0;
  r.read_latency.p95 = 2650.25;
  r.read_latency.p99 = 2700.75;
  r.read_latency.p999 = 2750.5;
  r.read_latency.max = 2800.0;
  r.read_latency.mean = 2205.125;
  r.phase_fraction = {0.0, 0.04, 0.36, 0.12, 0.36, 0.12};
  r.pal_fraction = {0.0, 0.0, 0.0, 1.0};
  r.phase_wait[static_cast<int>(Phase::kChannelContention)] = {8, 120.0, 10.0,
                                                              100.0, 200.0,
                                                              220.0, 240.0,
                                                              245.0, 250.0};
  r.latency.stage[static_cast<int>(obs::LatencyStage::kMedia)] = {
      8, 1500.0, 1400.0, 1500.0, 1600.0, 1610.0, 1620.0, 1625.0, 1630.0};
  r.latency.stage[static_cast<int>(obs::LatencyStage::kTotal)] = {
      8, 2205.125, 2000.0, 2100.5, 2600.0, 2650.25, 2700.75, 2750.5, 2800.0};
  r.latency.read_total =
      r.latency.stage[static_cast<int>(obs::LatencyStage::kTotal)];
  r.queue_depth = {{Time{}, 0.0}, {kMillisecond, 16.0 * static_cast<double>(MiB)}, {2 * kMillisecond, 8.0 * static_cast<double>(MiB)}};
  r.wear.total_erases = 10;
  r.wear.total_writes = 100;
  r.wear.touched_units = 5;
  r.wear.max_unit_erases = 3;
  r.wear.imbalance = 1.5;
  r.reliability.corrected_reads = 7;
  r.reliability.read_retries = 3;
  r.reliability.retry_time = 5 * kMicrosecond;
  r.reliability.effective_mbps = 3000.0;
  obs::MetricSnapshot counter;
  counter.name = "engine.requests";
  counter.kind = "counter";
  counter.value = 8.0;
  r.metrics.push_back(counter);
  obs::MetricSnapshot hist;
  hist.name = "engine.read_latency_us";
  hist.kind = "histogram";
  hist.histogram = {8, 2205.125, 2000.0, 2100.5, 2600.0, 2650.25, 2700.75,
                    2750.5, 2800.0};
  r.metrics.push_back(hist);
  return r;
}

std::string golden_path() {
  return std::string(NVMOOC_TEST_DATA_DIR) + "/golden/experiment_result.json";
}

TEST(ExperimentResultJson, MatchesGoldenFile) {
  const std::string actual = golden_fixture().to_json();
  if (std::getenv("NVMOOC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(), std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << golden_path();
    out << actual << '\n';
    GTEST_SKIP() << "regenerated " << golden_path();
  }
  std::ifstream in(golden_path(), std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << golden_path();
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::string expected = buffer.str();
  while (!expected.empty() && (expected.back() == '\n' || expected.back() == '\r')) {
    expected.pop_back();
  }
  EXPECT_EQ(actual, expected)
      << "ExperimentResult::to_json diverged from the golden file; if the "
         "schema change is intentional, regenerate with NVMOOC_REGEN_GOLDEN=1 "
         "and bump schema_version";
}

TEST(ExperimentResultJson, RoundTripsThroughParser) {
  const obs::JsonValue v = obs::parse_json(golden_fixture().to_json());
  ASSERT_EQ(v.kind, obs::JsonValue::Kind::kObject);
  EXPECT_DOUBLE_EQ(v.find("schema_version")->number, 1.0);
  EXPECT_EQ(v.find("name")->string, "CNL-UFS");
  EXPECT_EQ(v.find("media")->string, "TLC");
  EXPECT_DOUBLE_EQ(v.find("makespan_ps")->number, 21.36e9);
  EXPECT_DOUBLE_EQ(v.find("read_latency_us")->find("p95")->number, 2650.25);
  EXPECT_DOUBLE_EQ(v.find("read_latency_us")->find("p999")->number, 2750.5);
  EXPECT_DOUBLE_EQ(v.find("latency")
                       ->find("stages_us")
                       ->find("total")
                       ->find("p999")
                       ->number,
                   2750.5);
  EXPECT_DOUBLE_EQ(v.find("latency")->find("read_total_us")->find("p50")->number,
                   2100.5);
  EXPECT_DOUBLE_EQ(v.find("phase_fraction")->find("channel_activation")->number, 0.36);
  EXPECT_DOUBLE_EQ(
      v.find("phase_wait_us")->find("channel_contention")->find("p95")->number,
      220.0);
  EXPECT_EQ(v.find("queue_depth_bytes")->array.size(), 3u);
  EXPECT_DOUBLE_EQ(v.find("pal_fraction")->find("PAL4")->number, 1.0);
  EXPECT_DOUBLE_EQ(v.find("reliability")->find("read_retries")->number, 3.0);
  ASSERT_EQ(v.find("metrics")->array.size(), 2u);
  EXPECT_EQ(v.find("metrics")->array[1].find("kind")->string, "histogram");
}

// ---------- Perfetto smoke test over a real replay ----------------------

struct SpanRecord {
  double ts = 0.0;
  double dur = 0.0;
  std::string name;
};

/// Validates that 'X' spans on every (pid, tid) track form a proper
/// forest: at each stack level a new span either nests inside the
/// enclosing one or begins after it ended. This is exactly what Perfetto
/// requires to render a track without dropping events.
void expect_spans_nest(const std::map<std::pair<double, double>,
                                      std::vector<SpanRecord>>& tracks) {
  for (const auto& [track, spans_in] : tracks) {
    std::vector<SpanRecord> spans = spans_in;
    std::stable_sort(spans.begin(), spans.end(),
                     [](const SpanRecord& a, const SpanRecord& b) {
                       if (a.ts != b.ts) return a.ts < b.ts;
                       return a.dur > b.dur;  // Parents before children.
                     });
    std::vector<SpanRecord> stack;
    for (const SpanRecord& span : spans) {
      while (!stack.empty() && span.ts >= stack.back().ts + stack.back().dur - 1e-9) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        EXPECT_LE(span.ts + span.dur, stack.back().ts + stack.back().dur + 1e-9)
            << "span '" << span.name << "' [" << span.ts << ", +" << span.dur
            << ") straddles '" << stack.back().name << "' on track pid="
            << track.first << " tid=" << track.second;
      }
      stack.push_back(span);
    }
  }
}

struct ReplaySummary {
  ExperimentResult result;
  std::map<std::string, int> name_counts;
};

/// Runs one replay under its own observability session and validates the
/// produced trace is a well-formed Perfetto document: it parses, carries
/// both clock-domain process labels, and every track's spans nest.
ReplaySummary traced_replay(const ExperimentConfig& config, const Trace& trace) {
  InstrumentSet instruments(
      {.trace_out = kUnwritten, .metrics_out = kUnwritten, .flight = false});
  ReplaySummary out;
  out.result = run_experiment(config, trace);

  const obs::JsonValue v = obs::parse_json(instruments.tracer()->chrome_json());
  const obs::JsonValue* events = v.find("traceEvents");
  if (events == nullptr) {
    ADD_FAILURE() << "trace JSON has no traceEvents array";
    return out;
  }

  std::map<std::pair<double, double>, std::vector<SpanRecord>> tracks;
  bool saw_sim_process = false, saw_wall_process = false;
  for (const obs::JsonValue& e : events->array) {
    const std::string ph = e.find("ph")->string;
    if (ph == "M") {
      if (e.find("name")->string == "process_name") {
        const std::string label = e.find("args")->find("name")->string;
        saw_sim_process |= label == "sim-time";
        saw_wall_process |= label == "wall-time";
      }
      continue;
    }
    const std::string name = e.find("name")->string;
    ++out.name_counts[name];
    if (ph == "X") {
      SpanRecord span;
      span.ts = e.find("ts")->number;
      span.dur = e.find("dur")->number;
      span.name = name;
      EXPECT_GE(span.dur, 0.0);
      tracks[{e.find("pid")->number, e.find("tid")->number}].push_back(span);
    }
  }
  EXPECT_TRUE(saw_sim_process);
  EXPECT_TRUE(saw_wall_process);
  expect_spans_nest(tracks);
  return out;
}

TEST(PerfettoSmoke, FaultInjectedReplayCoversAllPhases) {
  // No single paper configuration exercises every Figure-10 phase: the
  // ION-GPFS path is fed through a slow cluster network, so requests
  // trickle in and never queue at a busy plane (no cell_contention),
  // while CNL-UFS sits on a fast local link whose reads finish under the
  // DMA window (no non_overlapped_dma). Replay one of each — each trace
  // must independently be a valid nesting Perfetto document — and
  // require the pair to cover all six phases.
  const Trace trace = sequential_read_trace(32 * MiB, 8 * MiB);

  ExperimentConfig ion = ion_gpfs_config(NvmType::kTlc);
  ion.fault.enabled = true;
  ion.fault.seed = 42;
  ion.fault.rber = 3e-3;  // Enough raw errors to climb the retry ladder.
  const ReplaySummary ion_run = traced_replay(ion, trace);
  ASSERT_GT(ion_run.result.reliability.read_retries, 0u)
      << "fixture must exercise the ECC retry ladder";

  const ReplaySummary cnl_run =
      traced_replay(cnl_ufs_config(NvmType::kTlc), trace);

  auto spans = [&](const char* name) {
    auto of = [&](const ReplaySummary& run) {
      const auto it = run.name_counts.find(name);
      return it == run.name_counts.end() ? 0 : it->second;
    };
    return of(ion_run) + of(cnl_run);
  };
  // All six Figure-10 phases appear as spans, plus the retry ladder.
  for (const char* phase :
       {"non_overlapped_dma", "flash_bus_activation", "channel_activation",
        "cell_contention", "channel_contention", "cell_activation"}) {
    EXPECT_GT(spans(phase), 0) << "missing phase span: " << phase;
  }
  EXPECT_GT(spans("ecc_retry"), 0) << "missing ECC retry spans";
  EXPECT_GT(spans("read"), 0);
  EXPECT_GT(spans("media"), 0);

  // The metrics half of the session fed the result.
  const ExperimentResult& result = ion_run.result;
  EXPECT_FALSE(result.metrics.empty());
  EXPECT_GT(result.read_latency.p95, 0.0);
  EXPECT_GE(result.read_latency.max, result.read_latency.p95);
  EXPECT_FALSE(result.queue_depth.empty());
  EXPECT_GT(result.phase_wait[static_cast<int>(Phase::kCellActivation)].count, 0u);
}

TEST(PerfettoSmoke, TracingDoesNotPerturbTheSimulation) {
  ExperimentConfig config = cnl_ufs_config(NvmType::kTlc);
  const Trace trace = sequential_read_trace(16 * MiB, 8 * MiB);
  const ExperimentResult baseline = run_experiment(config, trace);
  Time traced_makespan;
  {
    InstrumentSet instruments(
        {.trace_out = kUnwritten, .metrics_out = kUnwritten, .flight = false});
    traced_makespan = run_experiment(config, trace).makespan;
  }
  EXPECT_EQ(baseline.makespan, traced_makespan)
      << "enabling observability changed the simulated timeline";
}

// ---------- host telemetry (--speed-report) ------------------------------

TEST(HostTelemetry, SpeedReportDoesNotPerturbTheSimulation) {
  ExperimentConfig config = cnl_ufs_config(NvmType::kTlc);
  const Trace trace = sequential_read_trace(16 * MiB, 8 * MiB);
  const ExperimentResult baseline = run_experiment(config, trace);
  ExperimentResult metered;
  {
    obs::HostProfiler::Options options;
    options.heartbeat_sec = 3600.0;  // Keep the log quiet under ctest.
    obs::HostSession session(options);
    metered = run_experiment(config, trace);
  }
  // The headline contract: bit-identical simulated results with the
  // speedometer on — wall-clock sampling must never leak into Time.
  EXPECT_EQ(baseline.makespan, metered.makespan)
      << "the host profiler changed the simulated timeline";
  EXPECT_EQ(baseline.device_requests, metered.device_requests);
  EXPECT_EQ(baseline.transactions, metered.transactions);
  EXPECT_FALSE(baseline.host.enabled);
  ASSERT_TRUE(metered.host.enabled);
  EXPECT_EQ(baseline.to_json().find("\"host\""), std::string::npos);
  EXPECT_NE(metered.to_json().find("\"host\""), std::string::npos);
}

TEST(HostTelemetry, ReportCountsTheReplay) {
  ExperimentConfig config = cnl_ufs_config(NvmType::kTlc);
  const Trace trace = sequential_read_trace(16 * MiB, 8 * MiB);
  obs::HostProfiler::Options options;
  options.heartbeat_sec = 0.0;  // Heartbeat on every progress call.
  obs::HostSession session(options);
  const ExperimentResult result = run_experiment(config, trace);

  const obs::HostReport& host = result.host;
  ASSERT_TRUE(host.enabled);
  EXPECT_EQ(host.requests_total, trace.size());
  EXPECT_EQ(host.requests_completed, trace.size());
  EXPECT_EQ(host.heartbeats, trace.size());
  EXPECT_EQ(host.events[static_cast<int>(obs::HostEvent::kPosixRequest)],
            trace.size());
  EXPECT_EQ(host.events[static_cast<int>(obs::HostEvent::kDeviceRequest)],
            result.device_requests);
  EXPECT_GT(host.events[static_cast<int>(obs::HostEvent::kTimelineReservation)],
            0u);
  EXPECT_EQ(host.events_total,
            host.events[0] + host.events[1] + host.events[2]);
  EXPECT_GT(host.wall_seconds, 0.0);
  EXPECT_GT(host.events_per_sec, 0.0);
  EXPECT_GT(host.sim_time_per_wall_second, 0.0);
  EXPECT_GT(host.timeline_alloc.allocated_bytes, 0u);

  // Every engine-side subsystem the replay exercises shows up, and the
  // summary renders without blowing up.
  std::vector<std::string> names;
  names.reserve(host.sections.size());
  for (const obs::HostSectionStat& s : host.sections) names.push_back(s.name);
  EXPECT_NE(std::find(names.begin(), names.end(), "engine"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "io_path"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "controller"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "interconnect"), names.end());
  EXPECT_NE(host.summary().find("host speed report"), std::string::npos);
}

TEST(HostTelemetry, EventCountsAreDeterministicAcrossReplays) {
  ExperimentConfig config = cnl_ufs_config(NvmType::kTlc);
  const Trace trace = sequential_read_trace(16 * MiB, 8 * MiB);
  const auto run = [&] {
    obs::HostProfiler::Options options;
    options.heartbeat_sec = 3600.0;
    obs::HostSession session(options);
    return run_experiment(config, trace).host;
  };
  const obs::HostReport first = run();
  const obs::HostReport second = run();
  // Wall-clock numbers vary run to run; the counted work must not.
  EXPECT_EQ(first.events, second.events);
  EXPECT_EQ(first.events_total, second.events_total);
  EXPECT_EQ(first.requests_completed, second.requests_completed);
  EXPECT_EQ(first.timeline_alloc.allocations, second.timeline_alloc.allocations);
}

// The controller runs its transactions without per-transaction probe
// code unless a kTxn subscriber listens. Both paths must simulate the same
// replay, and the speedometer, which takes no kTxn event, must count the
// reservations a kTxn subscriber sees. Reads, checkpoint writes, and
// fault injection (retries, remaps, an ION-GPFS abort) on every medium.
TEST(HostTelemetry, BareReplayMatchesProbedReplay) {
  SyntheticWorkloadParams params;
  params.dataset_bytes = 16 * MiB;
  params.tile_bytes = 8 * MiB;
  params.sweeps = 1;
  params.checkpoint_bytes = 2 * MiB;
  const Trace trace = synthesize_ooc_trace(params);
  obs::HostProfiler::Options options;
  options.heartbeat_sec = 3600.0;  // Keep the log quiet under ctest.
  constexpr int kReservations = static_cast<int>(obs::HostEvent::kTimelineReservation);
  std::uint64_t retries = 0;
  std::uint64_t stalls = 0;
  std::uint64_t remaps = 0;
  std::uint64_t aborted = 0;
  for (const NvmType media : {NvmType::kSlc, NvmType::kMlc, NvmType::kTlc, NvmType::kPcm}) {
    for (ExperimentConfig config : {ion_gpfs_config(media), cnl_fs_config(ext4_behavior(), media),
                                    cnl_ufs_config(media)}) {
      for (const bool faults : {false, true}) {
        SCOPED_TRACE(config.name + "/" + std::string(to_string(media)) +
                     (faults ? " faults" : ""));
        if (faults) {
          config.fault.enabled = true;
          config.fault.seed = 42;
          config.fault.rber = 1.2e-2;
          config.fault.channel_stalls.push_back({0, Time{}, 200 * kMicrosecond});
          config.fault.stuck_dies.push_back({1, 0, 0, kMillisecond});
        }
        ExperimentResult bare;
        {
          obs::HostSession session(options);
          bare = run_experiment(config, trace);
        }
        IntervalCounter steps;
        ExperimentResult probed;
        {
          obs::HostSession session(options);
          const probe::Scoped listen(probe::Slot::kLatency, &steps);
          probed = run_experiment(config, trace);
        }
        retries += probed.reliability.read_retries;
        stalls += probed.reliability.channel_stalls;
        remaps += probed.reliability.remap_relocations;
        aborted += probed.reliability.aborted ? 1 : 0;
        EXPECT_GT(steps.intervals, 0u);
        EXPECT_EQ(steps.intervals, probed.host.events[kReservations]);
        EXPECT_EQ(bare.host.events, probed.host.events);
        bare.host = {};
        probed.host = {};
        EXPECT_EQ(bare.to_json(), probed.to_json());
      }
    }
  }
  EXPECT_GT(retries, 0u) << "the fixture must climb the retry ladder";
  EXPECT_GT(stalls, 0u) << "the fixture must stall a channel";
  EXPECT_GT(remaps, 0u) << "the fixture must relocate off a bad block";
  EXPECT_GT(aborted, 0u) << "the fixture must abort a replay";
}

// One session across two replays: each report covers its own replay only.
TEST(HostTelemetry, SuccessiveReplaysReportSeparately) {
  const ExperimentConfig config = cnl_ufs_config(NvmType::kTlc);
  const Trace trace = sequential_read_trace(16 * MiB, 8 * MiB);
  obs::HostProfiler::Options options;
  options.heartbeat_sec = 0.0;  // Heartbeat on every progress call.
  obs::HostSession session(options);
  const obs::HostReport first = run_experiment(config, trace).host;
  const obs::HostReport second = run_experiment(config, trace).host;
  EXPECT_EQ(second.events, first.events);
  EXPECT_EQ(second.events_total, first.events_total);
  EXPECT_EQ(second.events[static_cast<int>(obs::HostEvent::kPosixRequest)], trace.size());
  EXPECT_EQ(second.requests_completed, trace.size());
  EXPECT_EQ(second.heartbeats, trace.size());
  ASSERT_EQ(second.sections.size(), first.sections.size());
  for (const obs::HostSectionStat& s : second.sections) {
    const auto same = std::find_if(first.sections.begin(), first.sections.end(),
                                   [&](const obs::HostSectionStat& f) { return f.name == s.name; });
    ASSERT_NE(same, first.sections.end()) << s.name;
    EXPECT_EQ(s.enters, same->enters) << s.name;
  }
}

// The timeline allocation peak is the replay's own, not the thread's
// high-water mark over every earlier replay.
TEST(HostTelemetry, TimelinePeakIsPerReplay) {
  SyntheticWorkloadParams params;
  params.dataset_bytes = 64 * MiB;
  params.tile_bytes = 8 * MiB;
  params.sweeps = 1;
  params.checkpoint_bytes = 2 * MiB;
  const Trace trace = synthesize_ooc_trace(params);
  const auto peak = [&](const ExperimentConfig& config) {
    obs::HostSession session;
    return run_experiment(config, trace).host.timeline_alloc.peak_live_bytes;
  };
  const std::uint64_t ufs_alone = peak(cnl_ufs_config(NvmType::kPcm));
  const std::uint64_t ext4 = peak(cnl_fs_config(ext4_behavior(), NvmType::kPcm));
  const std::uint64_t ufs_after_ext4 = peak(cnl_ufs_config(NvmType::kPcm));
  EXPECT_EQ(ufs_after_ext4, ufs_alone);
  EXPECT_LT(ufs_after_ext4, ext4);
}

// The buckets partition the replay's wall time: every event bills the
// time since the one before, and the report bills the tail on the clock
// read that closes wall_seconds. Which events bill which bucket is
// deterministic, so the enters counts are the replay's event counts.
TEST(HostTelemetry, BucketsPartitionTheReplayWallTime) {
  struct LinkCounter final : probe::Subscriber {
    LinkCounter() : probe::Subscriber(probe::bit(probe::Kind::kInterval)) {}
    void on_interval(const probe::Interval& interval) override {
      if (interval.resource == probe::Resource::kLink) ++transfers;
    }
    std::uint64_t transfers = 0;
  };
  // Reads and checkpoint writes on the ION path cross the host link and
  // the network.
  SyntheticWorkloadParams params;
  params.dataset_bytes = 16 * MiB;
  params.tile_bytes = 8 * MiB;
  params.sweeps = 1;
  params.checkpoint_bytes = 2 * MiB;
  const Trace trace = synthesize_ooc_trace(params);
  LinkCounter links;
  const probe::Scoped counting(probe::Slot::kLatency, &links);
  obs::HostSession session;
  const ExperimentResult result = run_experiment(ion_gpfs_config(NvmType::kTlc), trace);
  const obs::HostReport& host = result.host;

  ASSERT_EQ(host.sections.size(), 4u);
  const auto ns = [](double seconds) { return std::llround(seconds * 1e9); };
  long long billed = 0;
  std::map<std::string, std::uint64_t> enters;
  for (const obs::HostSectionStat& s : host.sections) {
    billed += ns(s.wall_seconds);
    enters[s.name] = s.enters;
  }
  EXPECT_EQ(billed, ns(host.wall_seconds));
  EXPECT_EQ(enters["io_path"], trace.size());
  EXPECT_EQ(enters["controller"], result.device_requests);
  EXPECT_EQ(enters["interconnect"], links.transfers);
  EXPECT_GT(links.transfers, result.device_requests);
  EXPECT_GT(enters["engine"], 0u);
}

// ---------- metrics quantile edge cases ----------------------------------

TEST(Metrics, SingleSampleHistogramQuantilesAreTheSample) {
  obs::LogHistogram h;
  h.record(123.0);
  const obs::HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.min, 123.0);
  EXPECT_DOUBLE_EQ(s.max, 123.0);
  EXPECT_DOUBLE_EQ(s.mean, 123.0);
  // With one sample every quantile must land in the sample's bucket —
  // within one log sub-bucket of the value, and identical to each other.
  EXPECT_NEAR(s.p50, 123.0, 123.0 * 0.07);
  EXPECT_DOUBLE_EQ(s.p50, s.p90);
  EXPECT_DOUBLE_EQ(s.p90, s.p99);
  EXPECT_DOUBLE_EQ(s.p99, s.p999);
}

TEST(Metrics, AllSamplesInOneBucketInterpolate) {
  obs::LogHistogram h;
  for (int i = 0; i < 1000; ++i) h.record(500.0);
  // One occupied bucket: quantiles interpolate within its bounds, so
  // every rank (including deep-tail p999) stays near the common value
  // and the quantile function stays monotone.
  EXPECT_NEAR(h.quantile(0.5), 500.0, 500.0 * 0.07);
  EXPECT_NEAR(h.quantile(0.999), 500.0, 500.0 * 0.07);
  EXPECT_LE(h.quantile(0.5), h.quantile(0.999));
  EXPECT_DOUBLE_EQ(h.min(), 500.0);
  EXPECT_DOUBLE_EQ(h.max(), 500.0);
}

TEST(Metrics, TimeSeriesKeepsEverySampleBelowTheWindow) {
  obs::TimeSeries series(64);
  for (int i = 0; i < 10; ++i) {
    series.sample(Time{i} * 1000000, static_cast<double>(i * i));
  }
  // Fewer samples than the decimation window: no decimation at all —
  // every point survives with its exact timestamp and value.
  const auto& points = series.points();
  ASSERT_EQ(points.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(points[static_cast<std::size_t>(i)].first, Time{i} * 1000000);
    EXPECT_DOUBLE_EQ(points[static_cast<std::size_t>(i)].second,
                     static_cast<double>(i * i));
  }
}

// ---------- tail-latency observatory -------------------------------------

/// A synthetic ledger with the given id/total; stages are filled so the
/// waterfall has something to draw.
obs::PhaseLedger make_ledger(std::uint64_t id, double total_us,
                             bool read = true, bool internal = false) {
  obs::PhaseLedger ledger;
  ledger.id = id;
  ledger.read = read;
  ledger.internal = internal;
  ledger.bytes = (8 * MiB).value();
  ledger.ready = Time{0};
  const Time total{static_cast<std::int64_t>(total_us) * kMicrosecond};
  ledger.admit = total / 10;
  ledger.issue = total / 5;
  ledger.media_begin = total / 4;
  ledger.media_end = (total * 3) / 4;
  ledger.completion = total;
  using S = obs::LatencyStage;
  ledger.stage[static_cast<int>(S::kQueueWait)] = ledger.admit;
  ledger.stage[static_cast<int>(S::kCpu)] = ledger.issue - ledger.admit;
  ledger.stage[static_cast<int>(S::kDispatch)] = ledger.media_begin - ledger.issue;
  ledger.stage[static_cast<int>(S::kMedia)] = ledger.media_end - ledger.media_begin;
  ledger.stage[static_cast<int>(S::kCompletionTail)] =
      ledger.completion - ledger.media_end;
  ledger.stage[static_cast<int>(S::kTotal)] = total;
  return ledger;
}

TEST(TailLatency, ReservoirKeepsSlowestWithDeterministicTies) {
  obs::ExemplarReservoir reservoir(3);
  // Offer out of order, with a tie on total latency between ids 7 and 2.
  for (const auto& [id, total] :
       std::vector<std::pair<std::uint64_t, double>>{
           {5, 100.0}, {7, 900.0}, {1, 50.0}, {2, 900.0}, {9, 400.0},
           {3, 10.0}}) {
    reservoir.offer(make_ledger(id, total));
  }
  const std::vector<obs::PhaseLedger>& kept = reservoir.ledgers();
  ASSERT_EQ(kept.size(), 3u);
  // Slowest first; the 900us tie breaks toward the lower id.
  EXPECT_EQ(kept[0].id, 2u);
  EXPECT_EQ(kept[1].id, 7u);
  EXPECT_EQ(kept[2].id, 9u);
}

TEST(TailLatency, ObservatoryWaterfallIsParseableChromeTrace) {
  obs::LatencySession session(/*per_class=*/2);
  const obs::LatencyObservatory& observatory = session.observatory();
  for (const obs::PhaseLedger& ledger :
       {make_ledger(0, 100.0, /*read=*/true), make_ledger(1, 300.0, /*read=*/true),
        make_ledger(2, 200.0, /*read=*/true), make_ledger(3, 50.0, /*read=*/false),
        make_ledger(4, 75.0, /*read=*/true, /*internal=*/true)}) {
    probe::RequestClose close;
    close.ledger = ledger;
    probe::request_close(close);
  }
  EXPECT_EQ(observatory.observed(), 5u);

  // Per-class reservoirs: reads keep the 2 slowest; the read id 0
  // (fastest of three) is evicted, other classes keep everything.
  const std::vector<obs::PhaseLedger> exemplars = observatory.exemplars();
  ASSERT_EQ(exemplars.size(), 4u);
  std::vector<std::uint64_t> ids;
  ids.reserve(exemplars.size());
  for (const obs::PhaseLedger& e : exemplars) ids.push_back(e.id);
  EXPECT_EQ(std::count(ids.begin(), ids.end(), 0u), 0);
  EXPECT_EQ(std::count(ids.begin(), ids.end(), 1u), 1);

  const obs::JsonValue v = obs::parse_json(observatory.waterfall_json());
  const obs::JsonValue* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  int metadata = 0;
  int spans = 0;
  bool saw_total_stage = false;
  for (const obs::JsonValue& e : events->array) {
    const std::string ph = e.find("ph")->string;
    if (ph == "M") ++metadata;
    if (ph == "X") {
      ++spans;
      EXPECT_GE(e.find("dur")->number, 0.0);
      saw_total_stage |= e.find("name")->string == "media";
    }
  }
  EXPECT_GT(metadata, 0);
  EXPECT_GT(spans, 0);
  EXPECT_TRUE(saw_total_stage);
  EXPECT_NE(observatory.summary().find("read"), std::string::npos);
}

TEST(TailLatency, ReplayPopulatesTheLatencyDecomposition) {
  const Trace trace = sequential_read_trace(16 * MiB, 8 * MiB);
  const ExperimentResult result =
      run_experiment(cnl_ufs_config(NvmType::kTlc), trace);

  // Always-on: every device request folded into the total-stage
  // histogram, and the per-stage quantiles are coherent.
  const obs::HistogramSummary& total =
      result.latency.stage[static_cast<int>(obs::LatencyStage::kTotal)];
  EXPECT_EQ(total.count, result.device_requests);
  EXPECT_GT(total.p50, 0.0);
  EXPECT_LE(total.p50, total.p99);
  EXPECT_LE(total.p99, total.p999);
  EXPECT_LE(total.p999, total.max);
  EXPECT_EQ(result.latency.read_total.count, result.device_requests);
  EXPECT_EQ(result.latency.write_total.count, 0u);

  // The decomposition is serialised under "latency" with every stage key.
  const obs::JsonValue v = obs::parse_json(result.to_json());
  const obs::JsonValue* stages = v.find("latency")->find("stages_us");
  ASSERT_NE(stages, nullptr);
  for (int s = 0; s < obs::kLatencyStageCount; ++s) {
    const char* key = obs::latency_stage_key(static_cast<obs::LatencyStage>(s));
    ASSERT_NE(stages->find(key), nullptr) << "missing stage " << key;
    EXPECT_NE(stages->find(key)->find("p999"), nullptr);
  }
  EXPECT_DOUBLE_EQ(v.find("latency")->find("read_total_us")->find("count")->number,
                   static_cast<double>(result.device_requests));
}

TEST(TailLatency, SessionsDoNotPerturbTheSimulation) {
  ExperimentConfig config = cnl_ufs_config(NvmType::kTlc);
  const Trace trace = sequential_read_trace(16 * MiB, 8 * MiB);
  const ExperimentResult baseline = run_experiment(config, trace);
  Time observed_makespan;
  std::uint64_t observed_requests = 0;
  {
    obs::FlightSession flight;
    obs::LatencySession latency(/*per_class=*/4);
    const ExperimentResult run = run_experiment(config, trace);
    observed_makespan = run.makespan;
    observed_requests = latency.observatory().observed();
    EXPECT_FALSE(flight.recorder().ledgers().empty());
  }
  EXPECT_EQ(baseline.makespan, observed_makespan)
      << "exemplar/flight collection changed the simulated timeline";
  EXPECT_EQ(observed_requests, baseline.device_requests);
}

// ---------- flight recorder ----------------------------------------------

TEST(FlightRecorder, RingKeepsTheMostRecentEvents) {
  obs::FlightRecorder::Options options;
  options.event_capacity = 16;  // Constructor-enforced minimum.
  options.ledger_capacity = 4;
  obs::FlightSession session(options);
  const obs::FlightRecorder& recorder = session.recorder();
  for (std::uint64_t i = 0; i < 40; ++i) {
    probe::note(static_cast<std::int64_t>(i) * kMicrosecond, "test", "event", i);
  }
  for (std::uint64_t i = 0; i < 9; ++i) {
    probe::RequestClose close;
    close.ledger = make_ledger(i, 100.0);
    probe::request_close(close);
  }

  EXPECT_EQ(obs::parse_json(recorder.dump_json("test")).find("events_seen")->number, 40.0);
  const std::vector<obs::FlightEvent> events = recorder.events();
  ASSERT_EQ(events.size(), 16u);
  // Oldest-first, and exactly the newest window survives.
  EXPECT_EQ(events.front().seq, 24u);
  EXPECT_EQ(events.back().seq, 39u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, events[i - 1].seq + 1);
  }
  const std::vector<obs::PhaseLedger> ledgers = recorder.ledgers();
  ASSERT_EQ(ledgers.size(), 4u);
  EXPECT_EQ(ledgers.front().id, 5u);
  EXPECT_EQ(ledgers.back().id, 8u);

  const obs::JsonValue v = obs::parse_json(recorder.dump_json("unit test"));
  EXPECT_EQ(v.find("reason")->string, "unit test");
  EXPECT_DOUBLE_EQ(v.find("events_seen")->number, 40.0);
  EXPECT_DOUBLE_EQ(v.find("events_kept")->number, 16.0);
  EXPECT_DOUBLE_EQ(v.find("requests_seen")->number, 9.0);
  EXPECT_EQ(v.find("events")->array.size(), 16u);
  EXPECT_EQ(v.find("requests")->array.size(), 4u);
  EXPECT_NE(recorder.summary().find("40 event(s)"), std::string::npos);
}

TEST(FlightRecorder, AuditViolationDumpCarriesTheRequestLedger) {
  // The ISSUE's regression criterion: an injected audit violation must
  // provably emit a flight dump containing the violating request's phase
  // ledger. The auditor and the engine share the request-id scheme
  // (0-based device-request issue order), so the ledger ring and the
  // violation detail talk about the same request.
  const Trace trace = sequential_read_trace(16 * MiB, 8 * MiB);
  obs::FlightSession flight;
  check::AuditSession audit;
  const ExperimentResult result =
      run_experiment(cnl_ufs_config(NvmType::kTlc), trace);
  ASSERT_GT(result.device_requests, 0u);
  const std::uint64_t victim = result.device_requests - 1;

  // Inject: the auditor routes every violation through probe::note,
  // which the FlightSession wired into this recorder.
  audit.auditor().violation(
      "test_injected", "request " + std::to_string(victim) + " check failed");
  EXPECT_EQ(audit.auditor().violation_count(), 1u);

  const std::string dump = flight.recorder().dump_json("audit violation");
  const obs::JsonValue v = obs::parse_json(dump);

  bool saw_violation_event = false;
  for (const obs::JsonValue& e : v.find("events")->array) {
    if (e.find("category")->string == "audit" &&
        e.find("what")->string == "test_injected") {
      saw_violation_event = true;
      EXPECT_NE(e.find("detail")->string.find("request " +
                                              std::to_string(victim)),
                std::string::npos);
    }
  }
  EXPECT_TRUE(saw_violation_event)
      << "the injected audit violation never reached the flight ring";

  bool saw_victim_ledger = false;
  for (const obs::JsonValue& r : v.find("requests")->array) {
    if (static_cast<std::uint64_t>(r.find("id")->number) != victim) continue;
    saw_victim_ledger = true;
    // The ledger arrives with its full stage decomposition.
    const obs::JsonValue* stages = r.find("stages_us");
    ASSERT_NE(stages, nullptr);
    EXPECT_GT(stages->find("total")->number, 0.0);
    EXPECT_NE(stages->find("queue_wait"), nullptr);
    EXPECT_NE(stages->find("media"), nullptr);
  }
  EXPECT_TRUE(saw_victim_ledger)
      << "the violating request's phase ledger is missing from the dump";
}

// ---------- every instrument at once: golden export digests ----------------

/// FNV-1a 64 of `bytes`, as 16 hex digits: a stable fingerprint of one
/// export that a one-byte change anywhere flips.
std::string fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(h));
  return out;
}

/// The raw text of top-level member `key` of the JSON object `json`
/// (empty when absent): string- and nesting-aware, so keys of nested
/// objects never match.
std::string top_level_member(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (depth == 1 && json.compare(i, needle.size(), needle) == 0) {
      const std::size_t begin = i + needle.size();
      int inner = 0;
      bool quoted = false;
      for (std::size_t j = begin; j < json.size(); ++j) {
        const char d = json[j];
        if (quoted) {
          if (d == '\\') ++j;
          else if (d == '"') quoted = false;
          continue;
        }
        if (d == '"') quoted = true;
        else if (d == '{' || d == '[') ++inner;
        else if (d == '}' || d == ']') {
          if (inner == 0) return json.substr(begin, j - begin);
          if (--inner == 0) return json.substr(begin, j + 1 - begin);
        } else if (d == ',' && inner == 0) {
          return json.substr(begin, j - begin);
        }
      }
      return json.substr(begin);
    }
    if (c == '"') in_string = true;
    else if (c == '{' || c == '[') ++depth;
    else if (c == '}' || c == ']') --depth;
  }
  return "";
}

/// Sequential reads of `total` with a write of `write_size` after every
/// `writes_every` reads, the writes laid end to end from offset 0.
Trace mixed_trace(Bytes total, Bytes request_size, Bytes write_size,
                  std::size_t writes_every) {
  Trace trace;
  std::size_t reads = 0;
  Bytes write_cursor;
  for (Bytes offset; offset < total; offset += request_size) {
    trace.add(NvmOp::kRead, offset, std::min(request_size, total - offset));
    if (++reads % writes_every == 0) {
      trace.add(NvmOp::kWrite, write_cursor, write_size);
      write_cursor += write_size;
    }
  }
  return trace;
}

/// Replays `trace` with every instrument installed at once — tracer,
/// metrics, profiler, host telemetry, auditor, exemplar observatory and
/// flight recorder — and fingerprints each export.
std::map<std::string, std::string> instrument_digests(const ExperimentConfig& config,
                                                      const Trace& trace) {
  InstrumentSet instruments({.trace_out = kUnwritten,
                             .metrics_out = kUnwritten,
                             .audit = true,
                             .profile = true,
                             .speed_report = true,
                             .heartbeat_sec = 3600.0,  // No wall-clock heartbeat in the trace.
                             .exemplars = 4});
  const ExperimentResult result = run_experiment(config, trace);
  EXPECT_TRUE(result.audit.passed()) << result.audit.summary();
  EXPECT_EQ(result.profile.attributed, result.makespan);

  const std::string json = result.to_json();
  std::map<std::string, std::string> out;
  out["trace"] = fnv1a(instruments.tracer()->chrome_json());
  out["metrics"] = fnv1a(instruments.metrics()->json());
  for (const char* section : {"profile", "audit", "latency"}) {
    const std::string text = top_level_member(json, section);
    EXPECT_FALSE(text.empty()) << "to_json() has no \"" << section << "\" member";
    out[section] = fnv1a(text);
  }
  out["waterfall"] = fnv1a(instruments.observatory()->waterfall_json());
  out["flight"] = fnv1a(instruments.flight()->dump_json("golden"));
  return out;
}

TEST(InstrumentSet, InstallsExactlyTheSlotsItsOptionsAskFor) {
  using probe::Slot;
  struct Case {
    obs::CliOptions options;
    std::vector<Slot> slots;
  };
  const std::vector<Case> cases = {
      {{}, {Slot::kFlight}},  // The flight recorder is on by default.
      {{.flight = false}, {}},
      {{.trace_out = kUnwritten, .flight = false}, {Slot::kTrace}},
      {{.metrics_out = kUnwritten, .flight = false}, {Slot::kMetrics}},
      {{.audit = true, .flight = false}, {Slot::kAudit}},
      {{.profile = true, .flight = false}, {Slot::kProfile}},
      {{.speed_report = true, .heartbeat_sec = 3600.0, .flight = false}, {Slot::kHost}},
      {{.exemplars_out = kUnwritten, .flight = false}, {Slot::kLatency}},
      {{.exemplars = 3, .flight = false}, {Slot::kLatency}},
      {{.trace_out = kUnwritten,
        .metrics_out = kUnwritten,
        .audit = true,
        .profile = true,
        .speed_report = true,
        .heartbeat_sec = 3600.0,
        .exemplars = 1},
       {Slot::kAudit, Slot::kProfile, Slot::kTrace, Slot::kMetrics, Slot::kLatency,
        Slot::kFlight, Slot::kHost}},
  };
  for (std::size_t i = 0; i < cases.size(); ++i) {
    {
      InstrumentSet instruments(cases[i].options);
      for (int s = 0; s < probe::kSlotCount; ++s) {
        const auto slot = static_cast<Slot>(s);
        const bool wanted = std::find(cases[i].slots.begin(), cases[i].slots.end(), slot) !=
                            cases[i].slots.end();
        EXPECT_EQ(probe::slot(slot) != nullptr, wanted) << "case " << i << ", slot " << s;
      }
    }
    for (int s = 0; s < probe::kSlotCount; ++s) {
      EXPECT_EQ(probe::slot(static_cast<Slot>(s)), nullptr) << "case " << i << " left slot " << s;
    }
  }
  // --exemplars-out alone keeps the default reservoir size.
  EXPECT_EQ(obs::exemplars_per_class({.exemplars_out = kUnwritten}), obs::kDefaultExemplars);
  EXPECT_EQ(obs::exemplars_per_class({.exemplars_out = kUnwritten, .exemplars = 2}), 2u);
  EXPECT_EQ(obs::exemplars_per_class({}), 0u);
}

TEST(InstrumentSet, NestedSetLeavesTheOuterTracerListening) {
  // A bench binary keeps one set around the sweep for its exports and
  // builds one per replay for everything else; the inner set must not
  // hide the outer tracer.
  InstrumentSet outer({.trace_out = kUnwritten, .flight = false});
  {
    InstrumentSet inner({.audit = true, .profile = true});
    EXPECT_EQ(probe::slot(probe::Slot::kTrace), outer.tracer());
    EXPECT_EQ(inner.tracer(), nullptr);
    const ExperimentResult result =
        run_experiment(cnl_ufs_config(NvmType::kTlc), sequential_read_trace(8 * MiB, 8 * MiB));
    EXPECT_TRUE(result.audit.enabled);
    EXPECT_TRUE(result.profile.enabled);
    EXPECT_TRUE(inner.conclude().passed());
  }
  EXPECT_EQ(probe::slot(probe::Slot::kTrace), outer.tracer());
  EXPECT_EQ(probe::slot(probe::Slot::kAudit), nullptr);
  const obs::JsonValue trace = obs::parse_json(outer.tracer()->chrome_json());
  int spans = 0;
  for (const obs::JsonValue& event : trace.find("traceEvents")->array) {
    spans += event.find("name")->string == "cell_activation" ? 1 : 0;
  }
  EXPECT_GT(spans, 0) << "the outer tracer saw none of the inner replay";
}

std::string digest_golden_path() {
  return std::string(NVMOOC_TEST_DATA_DIR) + "/golden/instrument_digests.json";
}

TEST(InstrumentExports, MatchGoldenDigests) {
  // The byte-level oracle for the instrument plumbing: every export of
  // every instrument, with all of them subscribed at once, over a fault
  // run with the retry ladder (ION-GPFS) and a fault-free compute-local
  // read/write run (CNL-UFS). Any change to what an instrument sees, or in which
  // order, moves a digest.
  ExperimentConfig ion = ion_gpfs_config(NvmType::kTlc);
  ion.fault.enabled = true;
  ion.fault.seed = 42;
  ion.fault.rber = 3e-3;
  // And a compute-local run that loses pages (bad-block remaps, degraded
  // re-fetch over the replica link) behind a channel stall.
  ExperimentConfig degraded = cnl_ufs_config(NvmType::kSlc);
  degraded.fault.enabled = true;
  degraded.fault.rber = 0.015;
  degraded.fault.channel_stalls.push_back({0, Time{}, 200 * kMicrosecond});
  const std::vector<std::pair<std::string, std::map<std::string, std::string>>> runs = {
      {"ion-gpfs-tlc-faults",
       instrument_digests(ion, sequential_read_trace(32 * MiB, 8 * MiB))},
      {"cnl-ufs-tlc", instrument_digests(cnl_ufs_config(NvmType::kTlc),
                                         mixed_trace(32 * MiB, 4 * MiB, 2 * MiB, 3))},
      {"cnl-ufs-slc-degraded",
       instrument_digests(degraded, sequential_read_trace(32 * MiB, 8 * MiB))},
  };
  obs::JsonWriter w;
  w.begin_object();
  for (const auto& [name, digests] : runs) {
    w.key(name);
    w.begin_object();
    for (const auto& [export_name, digest] : digests) w.field(export_name, digest);
    w.end_object();
  }
  w.end_object();
  const std::string actual = w.str() + "\n";

  if (std::getenv("NVMOOC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(digest_golden_path(), std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << digest_golden_path();
    out << actual;
    GTEST_SKIP() << "regenerated " << digest_golden_path();
  }
  std::ifstream in(digest_golden_path(), std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << digest_golden_path();
  std::stringstream expected;
  expected << in.rdbuf();
  const obs::JsonValue golden = obs::parse_json(expected.str());
  for (const auto& [name, digests] : runs) {
    const obs::JsonValue* run = golden.find(name);
    ASSERT_NE(run, nullptr) << "golden file lacks run " << name;
    for (const auto& [export_name, digest] : digests) {
      const obs::JsonValue* want = run->find(export_name);
      ASSERT_NE(want, nullptr) << name << ": golden file lacks " << export_name;
      EXPECT_EQ(want->string, digest) << name << ": the " << export_name
                                      << " export changed";
    }
  }
  EXPECT_EQ(expected.str(), actual);
}

}  // namespace
}  // namespace nvmooc
