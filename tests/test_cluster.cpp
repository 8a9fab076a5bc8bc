// Tests for the experiment configurations and the replay engine — the
// qualitative claims of the paper expressed as assertions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/configs.hpp"
#include "cluster/energy.hpp"
#include "cluster/engine.hpp"
#include "common/alloc_counter.hpp"
#include "common/thread_pool.hpp"
#include "fs/presets.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "ooc/workload.hpp"
#include "trace/synthetic.hpp"

namespace nvmooc {
namespace {

Trace small_ooc_trace(Bytes dataset = 64 * MiB) {
  SyntheticWorkloadParams params;
  params.dataset_bytes = dataset;
  params.tile_bytes = 8 * MiB;
  params.sweeps = 2;
  params.checkpoint_bytes = Bytes{};
  return synthesize_ooc_trace(params);
}

// Two sweeps of a 64 MiB dataset with an 8 MiB checkpoint written after
// each: the shared-ION experiment's reads and its FTL write path.
Trace checkpoint_trace() {
  SyntheticWorkloadParams params;
  params.dataset_bytes = 64 * MiB;
  params.tile_bytes = 8 * MiB;
  params.sweeps = 2;
  params.checkpoint_bytes = 8 * MiB;
  return synthesize_ooc_trace(params);
}

// ---------- configs -----------------------------------------------------------

TEST(Configs, Table2RowsPresent) {
  const auto configs = all_configs(NvmType::kTlc);
  ASSERT_EQ(configs.size(), 13u);
  EXPECT_EQ(configs[0].name, "ION-GPFS");
  EXPECT_EQ(configs[9].name, "CNL-UFS");
  EXPECT_EQ(configs[12].name, "CNL-NATIVE-16");
}

TEST(Configs, Figure7OrderMatchesPaper) {
  const auto configs = figure7_configs(NvmType::kSlc);
  ASSERT_EQ(configs.size(), 10u);
  const char* expected[] = {"ION-GPFS",     "CNL-JFS",  "CNL-BTRFS", "CNL-XFS",
                            "CNL-REISERFS", "CNL-EXT2", "CNL-EXT3",  "CNL-EXT4",
                            "CNL-EXT4-L",   "CNL-UFS"};
  for (std::size_t i = 0; i < configs.size(); ++i) EXPECT_EQ(configs[i].name, expected[i]);
}

TEST(Configs, HardwareVariantsDifferAsTable2Says) {
  const auto ufs = cnl_ufs_config(NvmType::kSlc);
  const auto bridge16 = cnl_bridge16_config(NvmType::kSlc);
  const auto native8 = cnl_native8_config(NvmType::kSlc);
  const auto native16 = cnl_native16_config(NvmType::kSlc);

  EXPECT_EQ(ufs.host_link.lanes, 8u);
  EXPECT_EQ(bridge16.host_link.lanes, 16u);
  EXPECT_GT(bridge16.host_link.bridge_latency, Time{0});  // Still bridged.
  EXPECT_EQ(native8.host_link.bridge_latency, Time{0});   // Native.
  EXPECT_FALSE(ufs.nvm_bus.double_data_rate);       // SDR 400 MHz.
  EXPECT_TRUE(native8.nvm_bus.double_data_rate);    // DDR 800 MHz.
  EXPECT_EQ(native16.host_link.lanes, 16u);
  EXPECT_TRUE(native16.use_ufs);
}

TEST(Configs, IonIsNetworked) {
  const auto ion = ion_gpfs_config(NvmType::kSlc);
  EXPECT_EQ(ion.location, StorageLocation::kIonLocal);
  EXPECT_GT(ion.fs.stripe_width, 1u);
  for (const auto& config : figure8_configs(NvmType::kSlc)) {
    EXPECT_EQ(config.location, StorageLocation::kComputeLocal);
  }
}

// ---------- engine: qualitative paper claims -----------------------------------

TEST(Engine, CnlUfsBeatsIonGpfs) {
  const Trace trace = small_ooc_trace();
  for (NvmType media : kAllNvmTypes) {
    const auto ion = run_experiment(ion_gpfs_config(media), trace);
    const auto cnl = run_experiment(cnl_ufs_config(media), trace);
    EXPECT_GT(cnl.achieved_mbps, ion.achieved_mbps * 2.0)
        << "media " << to_string(media);
  }
}

TEST(Engine, WorstCnlFsStillBeatsIonOnNand) {
  // Paper Section 4.3: "Even in the worst performing file systems for
  // the CN-local approaches, improvements over the ION-GPFS setup are
  // 7%, 78%, and 108% for TLC, MLC, and SLC".
  const Trace trace = small_ooc_trace();
  for (NvmType media : {NvmType::kTlc, NvmType::kMlc, NvmType::kSlc}) {
    const auto ion = run_experiment(ion_gpfs_config(media), trace);
    double worst = 1e18;
    for (const FsBehavior& fs : all_local_filesystems()) {
      const auto result = run_experiment(cnl_fs_config(fs, media), trace);
      worst = std::min(worst, result.achieved_mbps);
    }
    EXPECT_GT(worst, ion.achieved_mbps) << "media " << to_string(media);
  }
}

TEST(Engine, UfsBeatsEveryTraditionalFs) {
  const Trace trace = small_ooc_trace();
  const auto ufs = run_experiment(cnl_ufs_config(NvmType::kTlc), trace);
  for (const FsBehavior& fs : all_local_filesystems()) {
    const auto result = run_experiment(cnl_fs_config(fs, NvmType::kTlc), trace);
    EXPECT_GT(ufs.achieved_mbps, result.achieved_mbps) << fs.name;
  }
}

TEST(Engine, Ext4LargeBeatsExt4) {
  // The "simple tuning" observation: opening the coalescing knobs gains
  // on the order of 1 GB/s.
  const Trace trace = small_ooc_trace();
  const auto ext4 = run_experiment(cnl_fs_config(ext4_behavior(), NvmType::kTlc), trace);
  const auto ext4l =
      run_experiment(cnl_fs_config(ext4_large_behavior(), NvmType::kTlc), trace);
  EXPECT_GT(ext4l.achieved_mbps, ext4.achieved_mbps * 1.3);
}

TEST(Engine, PcmObscuresFsDifferences) {
  // Paper: PCM's read speed hides the FS differences (PCIe becomes the
  // only limit). Spread on PCM must be far smaller than on TLC.
  const Trace trace = small_ooc_trace();
  auto spread = [&](NvmType media) {
    double lo = 1e18;
    double hi = 0;
    for (const FsBehavior& fs : all_local_filesystems()) {
      const auto result = run_experiment(cnl_fs_config(fs, media), trace);
      lo = std::min(lo, result.achieved_mbps);
      hi = std::max(hi, result.achieved_mbps);
    }
    return hi / lo;
  };
  EXPECT_LT(spread(NvmType::kPcm), 1.6);
  EXPECT_GT(spread(NvmType::kTlc), 2.0);
}

TEST(Engine, NativeLaddersUp) {
  // Figure 8: BRIDGE-16 barely helps; NATIVE-8 is a big jump; NATIVE-16
  // tops out.
  const Trace trace = small_ooc_trace();
  for (NvmType media : {NvmType::kTlc, NvmType::kPcm}) {
    const auto ufs = run_experiment(cnl_ufs_config(media), trace);
    const auto bridge16 = run_experiment(cnl_bridge16_config(media), trace);
    const auto native8 = run_experiment(cnl_native8_config(media), trace);
    const auto native16 = run_experiment(cnl_native16_config(media), trace);
    EXPECT_GE(bridge16.achieved_mbps, ufs.achieved_mbps * 0.98);
    EXPECT_LT(bridge16.achieved_mbps, ufs.achieved_mbps * 1.25);  // Marginal.
    EXPECT_GT(native8.achieved_mbps, bridge16.achieved_mbps * 1.5);
    EXPECT_GE(native16.achieved_mbps, native8.achieved_mbps);
  }
}

TEST(Engine, OrderOfMagnitudeHeadline) {
  // "throughput increases in excess of an order of magnitude over
  // current approaches": NATIVE-16 vs ION-GPFS.
  const Trace trace = small_ooc_trace();
  const auto ion = run_experiment(ion_gpfs_config(NvmType::kPcm), trace);
  const auto native = run_experiment(cnl_native16_config(NvmType::kPcm), trace);
  EXPECT_GT(native.achieved_mbps, ion.achieved_mbps * 10.0);
}

TEST(Engine, IonShowsHighChannelLowPackageUtilization) {
  // Figure 9 observation for ION-GPFS: striping keeps channels hot while
  // packages idle.
  const Trace trace = small_ooc_trace();
  const auto ion = run_experiment(ion_gpfs_config(NvmType::kTlc), trace);
  EXPECT_GT(ion.channel_utilization, 0.7);
  EXPECT_LT(ion.package_utilization, 0.5);
}

TEST(Engine, IonDominatedByNonOverlappedDma) {
  // Figure 10a: the ION cases spend a far larger share in non-overlapped
  // DMA (network) than CNL cases.
  const Trace trace = small_ooc_trace();
  const auto ion = run_experiment(ion_gpfs_config(NvmType::kTlc), trace);
  const auto cnl = run_experiment(cnl_ufs_config(NvmType::kTlc), trace);
  const double ion_dma = ion.phase_fraction[static_cast<int>(Phase::kNonOverlappedDma)];
  const double cnl_dma = cnl.phase_fraction[static_cast<int>(Phase::kNonOverlappedDma)];
  EXPECT_GT(ion_dma, cnl_dma * 2);
}

TEST(Engine, IonTlcStaysAtPal3WhileUfsReachesPal4) {
  // Figure 10b: "ION-local PCIe stays almost completely parallelism type
  // PAL3, and almost never makes it to the full parallelism of PAL4...
  // UFS-based architectures almost entirely reach PAL4".
  const Trace trace = small_ooc_trace();
  const auto ion = run_experiment(ion_gpfs_config(NvmType::kTlc), trace);
  const auto ufs = run_experiment(cnl_ufs_config(NvmType::kTlc), trace);
  EXPECT_GT(ion.pal_fraction[2], 0.6);   // PAL3-dominated.
  EXPECT_LT(ion.pal_fraction[3], 0.3);
  EXPECT_GT(ufs.pal_fraction[3], 0.9);   // PAL4-dominated.
}

TEST(Engine, PcmIsAlmostEntirelyPal4) {
  // Figure 10d: PCM's tiny pages spread any request across all dies.
  const Trace trace = small_ooc_trace();
  for (const auto& config : {ion_gpfs_config(NvmType::kPcm), cnl_ufs_config(NvmType::kPcm),
                             cnl_fs_config(ext2_behavior(), NvmType::kPcm)}) {
    const auto result = run_experiment(config, trace);
    EXPECT_GT(result.pal_fraction[3], 0.9) << config.name;
  }
}

TEST(Engine, NativeShiftsTimeTowardCellActivation) {
  // Figure 10a: toward the right (NATIVE), cell activation becomes the
  // dominant TLC phase — "a nearly ideal case".
  const Trace trace = small_ooc_trace();
  const auto ufs = run_experiment(cnl_ufs_config(NvmType::kTlc), trace);
  const auto native = run_experiment(cnl_native16_config(NvmType::kTlc), trace);
  const int cell = static_cast<int>(Phase::kCellActivation);
  const int cell_wait = static_cast<int>(Phase::kCellContention);
  EXPECT_GT(native.phase_fraction[cell], ufs.phase_fraction[cell]);
  // Cell work (activation + waiting on busy cells) dominates once the
  // buses stop being the bottleneck.
  EXPECT_GT(native.phase_fraction[cell] + native.phase_fraction[cell_wait], 0.4);
}

TEST(Engine, MakespanAndBytesAreConsistent) {
  const Trace trace = small_ooc_trace();
  const auto result = run_experiment(cnl_ufs_config(NvmType::kSlc), trace);
  EXPECT_EQ(result.payload_bytes, trace.stats().total_bytes);
  EXPECT_GT(result.makespan, Time{0});
  const double bw = bandwidth_mbps(result.payload_bytes, result.makespan);
  EXPECT_NEAR(result.achieved_mbps, bw, 1e-6);
}

TEST(Engine, BarriersSlowThingsDown) {
  // Sanity: an FS with frequent synchronous metadata must do worse than
  // the identical FS without it.
  const Trace trace = small_ooc_trace();
  FsBehavior chatty = ext4_behavior();
  chatty.metadata_interval = 256 * KiB;
  FsBehavior quiet = ext4_behavior();
  quiet.metadata_interval = Bytes{};
  const auto slow = run_experiment(cnl_fs_config(chatty, NvmType::kSlc), trace);
  const auto fast = run_experiment(cnl_fs_config(quiet, NvmType::kSlc), trace);
  EXPECT_LT(slow.achieved_mbps, fast.achieved_mbps);
}

TEST(Engine, LatencyPercentilesAreOrdered) {
  const Trace trace = small_ooc_trace(32 * MiB);
  const ExperimentResult result = run_experiment(cnl_ufs_config(NvmType::kMlc), trace);
  EXPECT_GT(result.read_latency.p50, 0.0);
  EXPECT_GE(result.read_latency.p99, result.read_latency.p50);
  EXPECT_GT(result.read_latency.mean, 0.0);
}

TEST(Engine, IonLatencyDwarfsLocal) {
  // Small random reads: the ION pays network + RPC on every access.
  Rng rng(5);
  const Trace trace = random_read_trace(64 * MiB, 8 * KiB, 300, rng);
  const ExperimentResult ion = run_experiment(ion_gpfs_config(NvmType::kPcm), trace);
  const ExperimentResult cnl = run_experiment(cnl_ufs_config(NvmType::kPcm), trace);
  EXPECT_GT(ion.read_latency.p50, cnl.read_latency.p50 * 5.0);
}

TEST(Energy, ComponentsAddUp) {
  const Trace trace = small_ooc_trace(32 * MiB);
  const ExperimentResult result = run_experiment(cnl_ufs_config(NvmType::kMlc), trace);
  const EnergyReport report = estimate_energy(result, false);
  EXPECT_GT(report.cell_joules, 0.0);
  EXPECT_GT(report.bus_joules, 0.0);
  EXPECT_GT(report.idle_joules, 0.0);
  EXPECT_DOUBLE_EQ(report.network_joules, 0.0);  // Compute-local: no fabric.
  EXPECT_NEAR(report.total_joules,
              report.cell_joules + report.bus_joules + report.link_joules +
                  report.network_joules + report.idle_joules,
              1e-12);
  EXPECT_GT(report.mj_per_mib, 0.0);
}

TEST(Energy, LocalNvmCheaperPerByteThanIon) {
  // The paper's energy argument: the ION path pays the network per byte
  // *and* idles everything longer.
  const Trace trace = small_ooc_trace(32 * MiB);
  const ExperimentResult ion = run_experiment(ion_gpfs_config(NvmType::kMlc), trace);
  const ExperimentResult cnl = run_experiment(cnl_ufs_config(NvmType::kMlc), trace);
  const EnergyReport ion_energy = estimate_energy(ion, true);
  const EnergyReport cnl_energy = estimate_energy(cnl, false);
  EXPECT_LT(cnl_energy.mj_per_mib, ion_energy.mj_per_mib);
  EXPECT_GT(ion_energy.network_joules, 0.0);
}

TEST(Energy, DramAlternativeScalesWithResidency) {
  const double small =
      in_memory_alternative_joules(GiB, GiB, kSecond);
  const double bigger_dataset =
      in_memory_alternative_joules(8 * GiB, GiB, kSecond);
  const double longer =
      in_memory_alternative_joules(GiB, GiB, 10 * kSecond);
  EXPECT_GT(bigger_dataset, small);
  EXPECT_GT(longer, small);
}

TEST(MultiClient, SharedIonDividesBandwidth) {
  // Figure 3's ratio: several CNs behind one ION SSD — per-client
  // bandwidth must fall roughly with the client count.
  const Trace trace = small_ooc_trace(32 * MiB);
  const MultiClientResult one = run_multi_client(ion_gpfs_config(NvmType::kMlc), trace, 1);
  const MultiClientResult four = run_multi_client(ion_gpfs_config(NvmType::kMlc), trace, 4);
  EXPECT_LT(four.per_client_mbps, one.per_client_mbps * 0.6);
  // Aggregate cannot exceed the wire.
  EXPECT_LE(four.aggregate_mbps, infiniband_qdr4x().byte_rate() / 1e6 * 1.01);
}

TEST(MultiClient, ComputeLocalScalesLinearly) {
  const Trace trace = small_ooc_trace(32 * MiB);
  const MultiClientResult one = run_multi_client(cnl_ufs_config(NvmType::kMlc), trace, 1);
  const MultiClientResult four = run_multi_client(cnl_ufs_config(NvmType::kMlc), trace, 4);
  EXPECT_DOUBLE_EQ(four.per_client_mbps, one.per_client_mbps);
  EXPECT_NEAR(four.aggregate_mbps, 4.0 * one.aggregate_mbps, 1e-6);
}

TEST(MultiClient, SingleClientMatchesEngineShape) {
  // One shared-ION client is the single-stream engine, to the picosecond.
  const Trace trace = checkpoint_trace();
  for (NvmType media : {NvmType::kSlc, NvmType::kMlc, NvmType::kTlc, NvmType::kPcm}) {
    const MultiClientResult multi = run_multi_client(ion_gpfs_config(media), trace, 1);
    const ExperimentResult single = run_experiment(ion_gpfs_config(media), trace);
    EXPECT_EQ(multi.makespan, single.makespan) << to_string(media);
    EXPECT_EQ(multi.per_client_mbps, single.achieved_mbps) << to_string(media);
  }
}

TEST(MultiClient, SharedReplayHonoursNotBefore) {
  Trace trace;
  trace.add(NvmOp::kRead, Bytes{}, 8 * MiB, Time{});
  trace.add(NvmOp::kRead, 8 * MiB, 8 * MiB, /*not_before=*/kSecond);
  ReplayEngine engine(ion_gpfs_config(NvmType::kSlc), 2);
  const ExperimentResult result = engine.run(trace);
  EXPECT_GT(result.makespan, kSecond);
  ASSERT_EQ(result.client_makespans.size(), 2u);
  for (Time done : result.client_makespans) EXPECT_GT(done, kSecond);
}

TEST(MultiClient, FaultsReachTheSharedDevice) {
  ExperimentConfig config = ion_gpfs_config(NvmType::kMlc);
  config.fault.enabled = true;
  config.fault.rber = 1e-3;
  ReplayEngine engine(config, 2);
  const ExperimentResult result = engine.run(small_ooc_trace(32 * MiB));
  EXPECT_GT(result.reliability.corrected_reads, 0u);
  EXPECT_FALSE(result.reliability.aborted) << result.reliability.abort_reason;
}

TEST(MultiClient, AuditedSharedReplayIsClean) {
  check::AuditSession session;
  ReplayEngine engine(ion_gpfs_config(NvmType::kMlc), 4);
  const ExperimentResult result = engine.run(small_ooc_trace(32 * MiB));
  ASSERT_TRUE(result.audit.enabled);
  EXPECT_TRUE(result.audit.passed()) << result.audit.summary();
  EXPECT_GT(result.audit.reservations, 0u);
  EXPECT_EQ(result.audit.requests_tracked, result.audit.requests_completed);
}

TEST(MultiClient, QueueDepthSamplesMoveForward) {
  // Only the first client's window is sampled, so the outline never goes
  // back in time however the clients interleave.
  for (const unsigned clients : {2U, 4U}) {
    ReplayEngine engine(ion_gpfs_config(NvmType::kMlc), clients);
    const std::vector<std::pair<Time, double>> q = engine.run(checkpoint_trace()).queue_depth;
    ASSERT_FALSE(q.empty());
    EXPECT_TRUE(std::is_sorted(q.begin(), q.end(),
                               [](const auto& a, const auto& b) { return a.first < b.first; }))
        << clients << " clients";
  }
}

TEST(MultiClient, CarverRatioStillFavoursCnl) {
  // At the 4:1 Carver ratio, per-client ION bandwidth is far below a
  // private compute-local SSD.
  const Trace trace = small_ooc_trace(32 * MiB);
  const MultiClientResult ion = run_multi_client(ion_gpfs_config(NvmType::kMlc), trace, 4);
  const MultiClientResult cnl = run_multi_client(cnl_ufs_config(NvmType::kMlc), trace, 4);
  EXPECT_GT(cnl.per_client_mbps, ion.per_client_mbps * 8.0);
}

std::string multi_client_golden_path() {
  return std::string(NVMOOC_TEST_DATA_DIR) + "/golden/multi_client.json";
}

// Every MultiClientResult field of the shared-ION replay, one row per
// media x client count, pinned bit for bit. Regenerate
// (NVMOOC_REGEN_GOLDEN=1 ./build/tests/test_cluster
// --gtest_filter=MultiClient.MatchesGolden) only for a change that means
// to move an answer.
TEST(MultiClient, MatchesGolden) {
  const Trace trace = checkpoint_trace();
  std::string actual = "{\n";
  const char* separator = "";
  for (NvmType media : {NvmType::kSlc, NvmType::kMlc, NvmType::kTlc, NvmType::kPcm}) {
    for (unsigned clients : {1u, 2u, 4u}) {
      const MultiClientResult r = run_multi_client(ion_gpfs_config(media), trace, clients);
      obs::JsonWriter w;
      w.begin_object();
      w.field("name", r.name);
      w.field("media", std::string(to_string(r.media)));
      w.field("clients", std::uint64_t{r.clients});
      w.field("makespan_ps", r.makespan.ps());
      w.field("total_bytes", r.total_bytes.value());
      w.field("aggregate_mbps", r.aggregate_mbps);
      w.field("per_client_mbps", r.per_client_mbps);
      w.field("worst_client_mbps", r.worst_client_mbps);
      w.end_object();
      actual += separator;
      actual += "\"" + r.name + "/" + std::string(to_string(media)) + "/" +
                std::to_string(clients) + "\": " + w.str();
      separator = ",\n";
    }
  }
  actual += "\n}\n";

  if (std::getenv("NVMOOC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(multi_client_golden_path(), std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << multi_client_golden_path();
    out << actual;
    GTEST_SKIP() << "regenerated " << multi_client_golden_path();
  }
  std::ifstream in(multi_client_golden_path(), std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << multi_client_golden_path();
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual);
}

TEST(Engine, BarrierDrainsPipeline) {
  // A trace with an explicit compute dependency: the second sweep may
  // not begin before `not_before`.
  Trace trace;
  trace.add(NvmOp::kRead, Bytes{}, 8 * MiB, Time{});
  trace.add(NvmOp::kRead, 8 * MiB, 8 * MiB, /*not_before=*/kSecond);
  const ExperimentResult result = run_experiment(cnl_ufs_config(NvmType::kSlc), trace);
  EXPECT_GT(result.makespan, kSecond);  // Honoured the dependency.
}

TEST(MultiClient, Deterministic) {
  const Trace trace = small_ooc_trace(32 * MiB);
  const MultiClientResult a = run_multi_client(ion_gpfs_config(NvmType::kTlc), trace, 3);
  const MultiClientResult b = run_multi_client(ion_gpfs_config(NvmType::kTlc), trace, 3);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.aggregate_mbps, b.aggregate_mbps);
}

TEST(Engine, InternalTrafficNotCountedAsPayload) {
  // ext2's metadata reads are real device traffic but must not inflate
  // the achieved-bandwidth numerator.
  const Trace trace = small_ooc_trace(32 * MiB);
  const ExperimentResult result =
      run_experiment(cnl_fs_config(ext2_behavior(), NvmType::kSlc), trace);
  EXPECT_EQ(result.payload_bytes, trace.stats().total_bytes);
  EXPECT_GT(result.internal_bytes, Bytes{0});
}

TEST(Engine, WritesWearTheDevice) {
  SyntheticWorkloadParams params;
  params.dataset_bytes = 32 * MiB;
  params.tile_bytes = 8 * MiB;
  params.sweeps = 1;
  params.checkpoint_bytes = 8 * MiB;
  const Trace trace = synthesize_ooc_trace(params);
  const auto result = run_experiment(cnl_ufs_config(NvmType::kSlc), trace);
  EXPECT_GT(result.wear.total_writes, 0u);
}

// Replay memory scales with what is in flight, not with trace length: the
// device folds its timelines behind the engine's issue watermark, so a
// trace four times longer peaks at about the same timeline bookkeeping.
// Without the fold the peak grows with every busy interval kept.
TEST(Engine, TimelineMemoryDoesNotGrowWithTraceLength) {
  const auto peak_timeline_bytes = [](Bytes dataset) {
    SyntheticWorkloadParams params;
    params.dataset_bytes = dataset;
    params.tile_bytes = 8 * MiB;
    params.sweeps = 1;
    const Trace trace = synthesize_ooc_trace(params);
    AllocTally& tally = alloc_tally(AllocDomain::kTimeline);
    const std::uint64_t before = tally.live_bytes;
    tally.peak_live_bytes = before;
    run_experiment(cnl_fs_config(ext4_behavior(), NvmType::kPcm), trace);
    return tally.peak_live_bytes - before;
  };
  const std::uint64_t short_peak = peak_timeline_bytes(64 * MiB);
  const std::uint64_t long_peak = peak_timeline_bytes(256 * MiB);
  ASSERT_GT(short_peak, 0u);
  EXPECT_LE(static_cast<double>(long_peak), 1.25 * static_cast<double>(short_peak))
      << "64 MiB trace peaked at " << short_peak << " B, 256 MiB at " << long_peak << " B";
}

// ---------- concurrent experiments (threaded / tsan) ---------------------

// The sweep binaries run independent experiments on a ThreadPool, each
// with its own thread-local observer sessions. That is sound only while
// no mutable state is shared across experiments (the property simlint's
// SL009 census guards statically). Every headline config x media cell
// runs here serially and then four-wide; each result must serialise
// byte-identically, and under the tsan preset any hidden shared state
// shows up as a race. The trace is a single-sweep 8 MiB version of the
// quick headline workload, so the tsan build can afford all 52 cells.
TEST(ConcurrentExperiments, PoolSweepMatchesSerialByteForByte) {
  SyntheticWorkloadParams params;
  params.dataset_bytes = 8 * MiB;
  params.tile_bytes = 4 * MiB;
  params.sweeps = 1;
  params.checkpoint_bytes = 1 * MiB;
  const Trace trace = synthesize_ooc_trace(params);

  std::vector<ExperimentConfig> configs;
  for (NvmType media : {NvmType::kTlc, NvmType::kMlc, NvmType::kSlc, NvmType::kPcm}) {
    for (const ExperimentConfig& config : all_configs(media)) configs.push_back(config);
  }
  ASSERT_EQ(configs.size(), 52u);

  struct Outcome {
    std::string json;
    std::uint64_t ledgers = 0;
  };
  const auto run_one = [&](const ExperimentConfig& config) {
    obs::FlightSession flight;
    Outcome outcome;
    outcome.json = run_experiment(config, trace).to_json();
    outcome.ledgers = static_cast<std::uint64_t>(
        obs::parse_json(flight.recorder().dump_json("")).find("requests_seen")->number);
    return outcome;
  };

  std::vector<Outcome> serial;
  for (const ExperimentConfig& config : configs) serial.push_back(run_one(config));

  std::vector<Outcome> pooled(configs.size());
  ThreadPool pool(4);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    pool.submit([&, i] { pooled[i] = run_one(configs[i]); });
  }
  pool.wait();

  for (std::size_t i = 0; i < configs.size(); ++i) {
    const std::string cell = configs[i].name + "/" + std::string(to_string(configs[i].media));
    EXPECT_GT(serial[i].ledgers, 0u) << cell;
    EXPECT_EQ(pooled[i].ledgers, serial[i].ledgers) << cell;
    EXPECT_EQ(pooled[i].json, serial[i].json) << cell;
  }
}

}  // namespace
}  // namespace nvmooc
