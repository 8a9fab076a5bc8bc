// Critical-path profiler tests: the Profiler's walk semantics on
// hand-built graphs, and the end-to-end invariant on real replays — the
// blame report is an exact partition of the makespan (integer
// picoseconds) on every seed configuration, profiling never changes
// timing, and the "profile" JSON section appears only when enabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "check/audit.hpp"
#include "cluster/configs.hpp"
#include "cluster/engine.hpp"
#include "obs/profiler.hpp"
#include "ooc/workload.hpp"

namespace nvmooc {
namespace {

Trace small_ooc_trace(Bytes dataset = 16 * MiB, Bytes checkpoint = 1 * MiB) {
  SyntheticWorkloadParams params;
  params.dataset_bytes = dataset;
  params.tile_bytes = 8 * MiB;
  params.sweeps = 1;
  params.checkpoint_bytes = checkpoint;
  return synthesize_ooc_trace(params);
}

// ---------- Profiler unit semantics ---------------------------------------
// Driven the way the engine drives it: a ProfileSession installs the
// profiler, and the probe emitters carry each request and device step.

// Opens a request ready at `ready` whose three gates all release then.
void open_request(Time ready, Time cpu_gate = Time{}) {
  probe::RequestOpen open;
  open.ready = ready;
  open.admit = ready;
  open.issue = ready;
  open.cpu_gate = cpu_gate;
  probe::request_open(open);
}

// Closes the open request: admitted at `ready`, on the submission core
// until `issue`, done at `completion`.
void close_request(Time ready, Time issue, Time completion) {
  static const std::string io_path = "fs";
  probe::RequestClose close;
  close.io_path = &io_path;
  close.ledger.ready = ready;
  close.ledger.admit = ready;
  close.ledger.issue = issue;
  close.ledger.stage[static_cast<int>(probe::LatencyStage::kCpu)] = issue - ready;
  close.ledger.media_begin = issue;
  close.ledger.media_end = completion;
  close.ledger.completion = completion;
  probe::request_close(close);
}

void channel_bus(Time start, Time end) {
  probe::step(probe::Resource::kChannel, probe::Site{}, start, start, end);
}

void cell(std::uint32_t plane, Time start, Time end) {
  probe::step(probe::Resource::kCell, probe::Site{0, 0, 0, plane}, start, start, end);
}

TEST(Profiler, SingleRequestChainIsFullyAttributed) {
  obs::ProfileSession session;
  open_request(Time{0});
  channel_bus(Time{40}, Time{100});
  close_request(Time{0}, Time{40}, Time{100});

  const obs::ProfileReport report = session.profiler().report(Time{100});
  EXPECT_EQ(report.attributed, Time{100});
  EXPECT_EQ(report.unattributed, Time{});
  ASSERT_EQ(report.blame.size(), 2u);
  EXPECT_EQ(report.blame[0].kind, "channel_bus");
  EXPECT_EQ(report.blame[0].resource, "ssd.ch0");
  EXPECT_EQ(report.blame[0].time, Time{60});
  EXPECT_EQ(report.blame[1].kind, "engine_cpu");
  EXPECT_EQ(report.blame[1].time, Time{40});
}

TEST(Profiler, GateFollowsPredecessorChain) {
  obs::ProfileSession session;
  // Request 1: cpu busy [0, 30]; request 2 gated on 1's cpu release at 30.
  open_request(Time{0});
  close_request(Time{0}, Time{30}, Time{90});

  open_request(Time{30}, /*cpu_gate=*/Time{30});
  cell(0, Time{70}, Time{120});
  close_request(Time{30}, Time{70}, Time{120});

  const obs::ProfileReport report = session.profiler().report(Time{120});
  EXPECT_EQ(report.attributed, Time{120});
  EXPECT_EQ(report.unattributed, Time{});
  // The walk crossed into request 1 through the cpu gate: blame covers
  // cell [70,120], cpu [30,70] (request 2) and cpu [0,30] (request 1).
  Time cpu_time;
  for (const obs::BlameEntry& entry : report.blame) {
    if (entry.kind == "engine_cpu") cpu_time += entry.time;
  }
  EXPECT_EQ(cpu_time, Time{70});
}

TEST(Profiler, ContiguityGapBecomesUnattributed) {
  obs::ProfileSession session;
  open_request(Time{0});
  // Hole between 20 and 60: no segment ends at 60.
  channel_bus(Time{0}, Time{20});
  channel_bus(Time{60}, Time{100});
  close_request(Time{0}, Time{0}, Time{100});

  const obs::ProfileReport report = session.profiler().report(Time{100});
  // Still an exact partition — the hole lands in the unattributed bucket.
  EXPECT_EQ(report.attributed, Time{100});
  EXPECT_EQ(report.unattributed, Time{40});
}

TEST(Profiler, EmptyProfilerAttributesNothing) {
  obs::ProfileSession session;
  const obs::ProfileReport report = session.profiler().report(Time{1000});
  EXPECT_EQ(report.attributed, Time{});
  EXPECT_TRUE(report.blame.empty());
  // The engine flags this as an audit violation when makespan > 0.
}

TEST(Profiler, MediaSegmentWithoutOpenRequestIsDropped) {
  obs::ProfileSession session;
  const obs::Profiler& prof = session.profiler();
  channel_bus(Time{0}, Time{10});
  EXPECT_EQ(prof.report(Time{10}).dropped_edges, 1u);

  open_request(Time{0});
  channel_bus(Time{0}, Time{10});
  close_request(Time{0}, Time{0}, Time{10});
  EXPECT_EQ(prof.report(Time{10}).dropped_edges, 1u);

  // After completion the request is closed again.
  channel_bus(Time{10}, Time{20});
  EXPECT_EQ(prof.report(Time{20}).dropped_edges, 2u);
}

TEST(Profiler, UtilizationMergesOverlappingIntervals) {
  obs::ProfileSession session;
  open_request(Time{0});
  // Two overlapping cell activations on the same die (two planes): the
  // die is busy [0, 100], not 150% busy.
  cell(0, Time{0}, Time{80});
  cell(1, Time{30}, Time{100});
  close_request(Time{0}, Time{0}, Time{100});

  const obs::ProfileReport report = session.profiler().report(Time{100}, 4);
  const obs::UtilizationSeries* series = nullptr;
  for (const obs::UtilizationSeries& s : report.utilization) {
    if (s.resource == "ssd.ch0.pkg0.die0") series = &s;
  }
  ASSERT_NE(series, nullptr);
  for (const auto& [t, v] : series->points) {
    (void)t;
    EXPECT_DOUBLE_EQ(v, 1.0);
  }
}

// ---------- End-to-end: profiled replays of every seed config -------------

TEST(ProfiledReplay, BlamePartitionsMakespanOnAllConfigs) {
  const Trace trace = small_ooc_trace();
  for (NvmType media :
       {NvmType::kTlc, NvmType::kMlc, NvmType::kSlc, NvmType::kPcm}) {
    for (const ExperimentConfig& config : all_configs(media)) {
      obs::ProfileSession session;
      const ExperimentResult result = run_experiment(config, trace);
      ASSERT_TRUE(result.profile.enabled);
      // The invariant: blame buckets partition [0, makespan] exactly, in
      // integer picoseconds, with nothing left unattributed and no
      // device edges dropped.
      EXPECT_EQ(result.profile.attributed, result.makespan)
          << config.name << "/" << to_string(media);
      EXPECT_EQ(result.profile.unattributed, Time{})
          << config.name << "/" << to_string(media);
      EXPECT_EQ(result.profile.dropped_edges, 0u)
          << config.name << "/" << to_string(media);
      EXPECT_GT(result.profile.critical_path_hops, 0u);
      EXPECT_GT(result.profile.io_path_device_requests, 0u);
    }
  }
}

TEST(ProfiledReplay, ProfilingDoesNotChangeTiming) {
  const Trace trace = small_ooc_trace();
  for (NvmType media : {NvmType::kTlc, NvmType::kPcm}) {
    for (const ExperimentConfig& config : all_configs(media)) {
      const ExperimentResult plain = run_experiment(config, trace);
      obs::ProfileSession session;
      const ExperimentResult profiled = run_experiment(config, trace);
      // Bit-identical makespan and throughput: instrumentation must
      // never perturb the simulation.
      EXPECT_EQ(plain.makespan, profiled.makespan)
          << config.name << "/" << to_string(media);
      EXPECT_EQ(plain.achieved_mbps, profiled.achieved_mbps)
          << config.name << "/" << to_string(media);
    }
  }
}

TEST(ProfiledReplay, ProfiledAuditPassesAndCoversUtilization) {
  const Trace trace = small_ooc_trace();
  const ExperimentConfig config = cnl_ufs_config(NvmType::kTlc);
  check::AuditSession audit;
  obs::ProfileSession session;
  const ExperimentResult result = run_experiment(config, trace);
  // Under --audit the blame==makespan check doubles as an invariant; a
  // clean replay must not trip it.
  EXPECT_TRUE(result.audit.passed()) << result.audit.summary();
  ASSERT_TRUE(result.profile.enabled);

  // Utilization series cover the controller resources and queue depths,
  // every busy fraction within [0, 1].
  std::set<std::string> kinds;
  bool saw_channel = false;
  for (const obs::UtilizationSeries& series : result.profile.utilization) {
    kinds.insert(series.kind);
    if (series.resource.rfind("ssd.ch", 0) == 0) saw_channel = true;
    for (const auto& [t, v] : series.points) {
      (void)t;
      EXPECT_GE(v, 0.0) << series.resource;
      if (series.kind == "busy_fraction") {
        EXPECT_LE(v, 1.0) << series.resource;
      }
    }
  }
  EXPECT_TRUE(saw_channel);
  EXPECT_EQ(kinds.count("busy_fraction"), 1u);
  EXPECT_EQ(kinds.count("queue_depth"), 1u);
}

TEST(ProfiledReplay, HostLinkUtilizationComesFromTimelineFeed) {
  const Trace trace = small_ooc_trace();
  // Bridged PCIe config: the host DMA link is a labelled timeline.
  const ExperimentConfig config = cnl_ufs_config(NvmType::kTlc);
  obs::ProfileSession session;
  const ExperimentResult result = run_experiment(config, trace);
  bool saw_host_link = false;
  for (const obs::UtilizationSeries& series : result.profile.utilization) {
    if (series.resource == "link.host" && series.kind == "busy_fraction") {
      saw_host_link = true;
      double peak = 0.0;
      for (const auto& [t, v] : series.points) {
        (void)t;
        peak = std::max(peak, v);
      }
      EXPECT_GT(peak, 0.0);
    }
  }
  EXPECT_TRUE(saw_host_link);
}

TEST(ProfiledReplay, JsonCarriesProfileSectionOnlyWhenEnabled) {
  const Trace trace = small_ooc_trace();
  const ExperimentConfig config = cnl_ufs_config(NvmType::kTlc);

  const ExperimentResult plain = run_experiment(config, trace);
  EXPECT_EQ(plain.to_json().find("\"profile\""), std::string::npos);

  obs::ProfileSession session;
  const ExperimentResult profiled = run_experiment(config, trace);
  const std::string json = profiled.to_json();
  EXPECT_NE(json.find("\"profile\""), std::string::npos);
  EXPECT_NE(json.find("\"unattributed_ps\":0"), std::string::npos);
  EXPECT_NE(json.find("\"blame\""), std::string::npos);
  EXPECT_NE(json.find("\"utilization\""), std::string::npos);
  EXPECT_FALSE(profiled.profile.summary().empty());
}

}  // namespace
}  // namespace nvmooc
