// Tests for the reliability layer: seeded fault injection, the ECC /
// read-retry model, FTL bad-block management, and the end-to-end
// degradation accounting the replay engine reports.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/configs.hpp"
#include "cluster/engine.hpp"
#include "dooc/prefetcher.hpp"
#include "ooc/tile_store.hpp"
#include "ooc/workload.hpp"
#include "reliability/ecc.hpp"
#include "reliability/fault.hpp"
#include "ssd/ftl.hpp"
#include "ssd/ssd.hpp"
#include "trace/scenario.hpp"

namespace nvmooc {
namespace {

Trace small_ooc_trace(Bytes dataset = 32 * MiB, std::uint32_t sweeps = 1) {
  SyntheticWorkloadParams params;
  params.dataset_bytes = dataset;
  params.tile_bytes = 8 * MiB;
  params.sweeps = sweeps;
  params.checkpoint_bytes = Bytes{};
  return synthesize_ooc_trace(params);
}

// Moderate error rate for SLC 2 KiB pages / 40 b-per-KiB ECC: first
// senses fail often enough to exercise the ladder, but a single ladder
// step always recovers — retries happen, uncorrectables do not.
constexpr double kRetryRber = 4e-3;
// High error rate: the ladder loses a visible fraction of pages.
constexpr double kLossRber = 0.015;

// ---------- the deterministic draw stream ------------------------------------

TEST(FaultUniform, DeterministicAndInRange) {
  for (std::uint64_t unit = 0; unit < 64; ++unit) {
    for (std::uint32_t attempt = 0; attempt < 4; ++attempt) {
      const double u = fault_uniform(42, unit, 7, attempt);
      EXPECT_GE(u, 0.0);
      EXPECT_LT(u, 1.0);
      EXPECT_EQ(u, fault_uniform(42, unit, 7, attempt));
    }
  }
  EXPECT_NE(fault_uniform(42, 1, 2, 3), fault_uniform(43, 1, 2, 3));
  EXPECT_NE(fault_uniform(42, 1, 2, 3), fault_uniform(42, 2, 2, 3));
  EXPECT_NE(fault_uniform(42, 1, 2, 3), fault_uniform(42, 1, 3, 3));
}

TEST(FaultInjector, RberScalesWithWearAndMediaDefaults) {
  FaultConfig config;
  config.enabled = true;
  const FaultInjector injector(config, NvmType::kTlc, 100'000);
  EXPECT_DOUBLE_EQ(injector.effective_rber(0), media_base_rber(NvmType::kTlc));
  EXPECT_GT(media_base_rber(NvmType::kTlc), media_base_rber(NvmType::kSlc));
  EXPECT_GT(injector.effective_rber(50'000), injector.effective_rber(0));
}

TEST(FaultInjector, StuckDiesAndChannelStalls) {
  FaultConfig config;
  config.enabled = true;
  config.stuck_dies.push_back({1, 0, 2, 5 * kMicrosecond});
  config.channel_stalls.push_back({3, 10 * kMicrosecond, 4 * kMicrosecond});
  const FaultInjector injector(config, NvmType::kSlc, 100'000);

  EXPECT_FALSE(injector.die_stuck(1, 0, 2, Time{}));
  EXPECT_TRUE(injector.die_stuck(1, 0, 2, 5 * kMicrosecond));
  EXPECT_FALSE(injector.die_stuck(0, 0, 2, 99 * kMicrosecond));

  bool stalled = false;
  EXPECT_EQ(injector.channel_available(3, 11 * kMicrosecond, &stalled),
            14 * kMicrosecond);
  EXPECT_TRUE(stalled);
  EXPECT_EQ(injector.channel_available(3, 20 * kMicrosecond, &stalled),
            20 * kMicrosecond);
  EXPECT_FALSE(stalled);
  EXPECT_EQ(injector.channel_available(2, 11 * kMicrosecond, &stalled),
            11 * kMicrosecond);
}

// ---------- ECC model --------------------------------------------------------

TEST(Ecc, CleanMediaNeverErrors) {
  const EccModel model;
  EXPECT_DOUBLE_EQ(model.p_any_error(0.0, 2 * KiB), 0.0);
  EXPECT_DOUBLE_EQ(model.p_uncorrectable(0.0, 2 * KiB), 0.0);
  const EccOutcome outcome =
      model.read(0.0, 2 * KiB, [](std::uint32_t) { return 0.0; });
  EXPECT_EQ(outcome.verdict, ReadVerdict::kClean);
  EXPECT_EQ(outcome.retries, 0u);
}

TEST(Ecc, FailureProbabilitiesAreOrderedAndMonotone) {
  const EccModel model;
  for (double rber : {1e-6, 1e-4, 1e-3, 1e-2}) {
    EXPECT_LE(model.p_uncorrectable(rber, 2 * KiB), model.p_any_error(rber, 2 * KiB));
  }
  EXPECT_LT(model.p_uncorrectable(1e-3, 2 * KiB), model.p_uncorrectable(1e-2, 2 * KiB));
  EXPECT_LT(model.p_any_error(1e-7, 2 * KiB), model.p_any_error(1e-5, 2 * KiB));
  // More data, more codewords at risk.
  EXPECT_LT(model.p_uncorrectable(5e-3, 1 * KiB), model.p_uncorrectable(5e-3, 8 * KiB));
}

TEST(Ecc, LadderVerdicts) {
  const EccModel model;  // 4 retries.
  // A draw of 0 fails every sense at any meaningful error rate.
  const EccOutcome lost = model.read(0.5, 2 * KiB, [](std::uint32_t) { return 0.0; });
  EXPECT_EQ(lost.verdict, ReadVerdict::kUncorrectable);
  EXPECT_EQ(lost.retries, model.config().max_read_retries);

  // A draw of ~1 never sees an error at a low rate.
  const EccOutcome clean =
      model.read(1e-9, 2 * KiB, [](std::uint32_t) { return 0.999999; });
  EXPECT_EQ(clean.verdict, ReadVerdict::kClean);

  // First sense fails, first ladder step recovers: corrected, 1 retry.
  const double rber = 0.01;  // p_uncorrectable(step 0) is essentially 1.
  const EccOutcome recovered = model.read(rber, 2 * KiB, [&](std::uint32_t attempt) {
    return attempt == 0 ? 0.0 : 0.999999;
  });
  EXPECT_EQ(recovered.verdict, ReadVerdict::kCorrected);
  EXPECT_EQ(recovered.retries, 1u);
}

// ---------- FTL bad-block management -----------------------------------------

TEST(BadBlocks, RetireRelocatesRemapsAndIsIdempotent) {
  SsdGeometry geometry;
  geometry.channels = 2;
  geometry.packages_per_channel = 1;
  geometry.dies_per_package = 1;
  const NvmTiming timing = slc_timing();
  Ftl ftl(geometry, timing, {});
  ftl.set_preloaded(64 * timing.page_size);  // Identity-mapped live data.

  std::vector<UnitRun> relocation;
  EXPECT_TRUE(ftl.retire_block(0, relocation));
  EXPECT_EQ(ftl.stats().retired_blocks, 1u);
  EXPECT_EQ(ftl.stats().spare_blocks_used, 1u);
  EXPECT_EQ(ftl.capacity_lost(), Bytes{0});  // Absorbed by the spare pool.
  EXPECT_TRUE(ftl.is_bad_block(0));
  EXPECT_FALSE(ftl.failed());

  // Live pages moved, and the lost page itself was remapped (its rewrite
  // rides in the relocation traffic).
  EXPECT_GT(ftl.stats().remap_relocated_pages, 0u);
  EXPECT_FALSE(relocation.empty());
  EXPECT_NE(ftl.lookup(0), 0u);
  bool lost_page_rewritten = false;
  for (const UnitRun& run : relocation) {
    EXPECT_TRUE(run.gc);  // Internal traffic.
    if (run.op == NvmOp::kWrite && run.first_unit == ftl.lookup(0)) {
      lost_page_rewritten = true;
    }
  }
  EXPECT_TRUE(lost_page_rewritten);

  // Re-retiring the same block is a no-op.
  std::vector<UnitRun> again;
  EXPECT_TRUE(ftl.retire_block(0, again));
  EXPECT_EQ(ftl.stats().retired_blocks, 1u);
  EXPECT_TRUE(again.empty());

  // New allocations never land on the bad block.
  for (std::uint32_t i = 0; i < 4 * timing.pages_per_block; ++i) {
    BlockRequest write;
    write.op = NvmOp::kWrite;
    write.offset = (64 + i) * timing.page_size;
    write.size = timing.page_size;
    for (const UnitRun& run : ftl.translate(write)) {
      if (run.op != NvmOp::kWrite) continue;
      for (std::uint64_t u = run.first_unit; u < run.first_unit + run.count; ++u) {
        EXPECT_FALSE(ftl.is_bad_block(u));
      }
    }
  }
}

TEST(BadBlocks, CapacityLossAndHardFailurePastTheSparePool) {
  SsdGeometry geometry;
  geometry.channels = 2;
  geometry.packages_per_channel = 1;
  geometry.dies_per_package = 1;
  const NvmTiming timing = slc_timing();
  FtlConfig config;
  config.spare_blocks = 1;
  config.hard_failure_capacity_fraction = 0.0;  // Any real loss is fatal.
  Ftl ftl(geometry, timing, config);

  std::vector<UnitRun> out;
  EXPECT_TRUE(ftl.retire_block(0, out));  // Spare absorbs it.
  EXPECT_EQ(ftl.capacity_lost(), Bytes{0});
  EXPECT_FALSE(ftl.failed());

  // Second retirement (a different block) exceeds the spares.
  const std::uint64_t second_block_unit =
      geometry.plane_positions(timing) * timing.pages_per_block;
  EXPECT_FALSE(ftl.retire_block(second_block_unit, out));
  EXPECT_TRUE(ftl.failed());
  EXPECT_EQ(ftl.capacity_lost(),
            timing.pages_per_block * timing.page_size);
}

// ---------- end-to-end: retries under moderate error rates --------------------

TEST(Replay, DisabledInjectionIsZeroCost) {
  const Trace trace = small_ooc_trace();
  ExperimentConfig plain = cnl_ufs_config(NvmType::kSlc);

  ExperimentConfig configured = cnl_ufs_config(NvmType::kSlc);
  configured.fault.enabled = false;  // Everything else armed but off.
  configured.fault.rber = 0.05;
  configured.fault.stuck_dies.push_back({0, 0, 0, Time{}});
  configured.fault.channel_stalls.push_back({0, Time{}, kMicrosecond});

  const ExperimentResult a = run_experiment(plain, trace);
  const ExperimentResult b = run_experiment(configured, trace);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.read_latency.p99, b.read_latency.p99);
  EXPECT_EQ(b.reliability.read_retries, 0u);
  EXPECT_EQ(b.reliability.corrected_reads, 0u);
  EXPECT_EQ(b.reliability.uncorrectable_reads, 0u);
  EXPECT_EQ(b.reliability.remapped_blocks, 0u);
  EXPECT_EQ(b.reliability.degraded_requests, 0u);
  EXPECT_FALSE(b.reliability.aborted);
}

TEST(Replay, ModerateRberCausesRetriesButNoLoss) {
  const Trace trace = small_ooc_trace();
  const ExperimentResult clean = run_experiment(cnl_ufs_config(NvmType::kSlc), trace);

  ExperimentConfig faulty = cnl_ufs_config(NvmType::kSlc);
  faulty.fault.enabled = true;
  faulty.fault.rber = kRetryRber;
  const ExperimentResult result = run_experiment(faulty, trace);

  EXPECT_GT(result.reliability.read_retries, 0u);
  EXPECT_GT(result.reliability.corrected_reads, 0u);
  EXPECT_GT(result.reliability.retry_time, Time{0});
  EXPECT_EQ(result.reliability.uncorrectable_reads, 0u);
  EXPECT_EQ(result.reliability.remapped_blocks, 0u);
  EXPECT_FALSE(result.reliability.aborted);

  // Retries re-enter contention: the replay takes longer and the tail
  // latency grows.
  EXPECT_GT(result.makespan, clean.makespan);
  EXPECT_GE(result.read_latency.p99, clean.read_latency.p99);
  EXPECT_LT(result.achieved_mbps, clean.achieved_mbps);
}

TEST(Replay, SameSeedSameCountersDifferentSeedDifferentFaults) {
  const Trace trace = small_ooc_trace();
  ExperimentConfig faulty = cnl_ufs_config(NvmType::kSlc);
  faulty.fault.enabled = true;
  faulty.fault.rber = kRetryRber;
  faulty.fault.seed = 1234;

  const ExperimentResult a = run_experiment(faulty, trace);
  const ExperimentResult b = run_experiment(faulty, trace);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.reliability.read_retries, b.reliability.read_retries);
  EXPECT_EQ(a.reliability.corrected_reads, b.reliability.corrected_reads);
  EXPECT_EQ(a.reliability.uncorrectable_reads, b.reliability.uncorrectable_reads);
  EXPECT_EQ(a.reliability.retry_time, b.reliability.retry_time);
  EXPECT_EQ(a.reliability.effective_mbps, b.reliability.effective_mbps);

  faulty.fault.seed = 4321;
  const ExperimentResult c = run_experiment(faulty, trace);
  EXPECT_NE(a.reliability.read_retries, c.reliability.read_retries);
}

// ---------- end-to-end: graceful degradation and aborts -----------------------

TEST(Replay, HighRberDegradesGracefullyOnComputeLocal) {
  const Trace trace = small_ooc_trace();
  ExperimentConfig faulty = cnl_ufs_config(NvmType::kSlc);
  faulty.fault.enabled = true;
  faulty.fault.rber = kLossRber;
  const ExperimentResult result = run_experiment(faulty, trace);

  // Pages were lost, blocks retired, the spare pool overflowed into real
  // capacity loss — and the replay still finished via the ION replica.
  EXPECT_GT(result.reliability.uncorrectable_reads, 0u);
  EXPECT_GT(result.reliability.remapped_blocks, 0u);
  EXPECT_GT(result.reliability.remap_relocations, 0u);
  EXPECT_GT(result.reliability.spare_blocks_used, 0u);
  EXPECT_GT(result.reliability.capacity_lost, Bytes{0});
  EXPECT_GT(result.reliability.degraded_requests, 0u);
  EXPECT_GT(result.reliability.degraded_bytes, Bytes{0});
  EXPECT_FALSE(result.reliability.aborted);
  EXPECT_FALSE(result.reliability.hard_failure);
  EXPECT_GT(result.makespan, Time{0});

  // Bytes recovered over the network do not count as device-delivered.
  EXPECT_LT(result.reliability.effective_mbps, result.achieved_mbps);
  // The FTL view and the merged view agree.
  EXPECT_EQ(result.reliability.remapped_blocks, result.ftl.retired_blocks);
}

TEST(Replay, UncorrectableOnIonLocalAborts) {
  const Trace trace = small_ooc_trace();
  ExperimentConfig faulty = ion_gpfs_config(NvmType::kSlc);
  faulty.fault.enabled = true;
  faulty.fault.rber = 0.02;
  const ExperimentResult result = run_experiment(faulty, trace);

  EXPECT_TRUE(result.reliability.aborted);
  EXPECT_NE(result.reliability.abort_reason.find("ION-local"), std::string::npos);
  EXPECT_GT(result.reliability.uncorrectable_reads, 0u);
}

TEST(Replay, HardFailureThresholdAborts) {
  const Trace trace = small_ooc_trace();
  ExperimentConfig faulty = cnl_ufs_config(NvmType::kSlc);
  faulty.fault.enabled = true;
  faulty.fault.rber = 0.02;
  faulty.ftl.spare_blocks = 0;
  faulty.ftl.hard_failure_capacity_fraction = 0.0;  // First loss is fatal.
  const ExperimentResult result = run_experiment(faulty, trace);

  EXPECT_TRUE(result.reliability.hard_failure);
  EXPECT_TRUE(result.reliability.aborted);
  EXPECT_NE(result.reliability.abort_reason.find("hard failure"), std::string::npos);
}

TEST(Replay, StuckDieIsRecoveredThroughTheReplica) {
  const Trace trace = small_ooc_trace(16 * MiB);
  ExperimentConfig faulty = cnl_ufs_config(NvmType::kSlc);
  faulty.fault.enabled = true;
  faulty.fault.rber = 0.0;  // Isolate the stuck die from bit errors.
  faulty.fault.stuck_dies.push_back({0, 0, 0, Time{}});
  const ExperimentResult result = run_experiment(faulty, trace);

  EXPECT_GT(result.reliability.die_stuck_reads, 0u);
  EXPECT_GT(result.reliability.degraded_requests, 0u);
  EXPECT_GT(result.reliability.remapped_blocks, 0u);
  EXPECT_FALSE(result.reliability.aborted);
}

TEST(Replay, ChannelStallShowsUpAsContention) {
  const Trace trace = small_ooc_trace(16 * MiB);
  const ExperimentResult clean = run_experiment(cnl_ufs_config(NvmType::kSlc), trace);

  ExperimentConfig faulty = cnl_ufs_config(NvmType::kSlc);
  faulty.fault.enabled = true;
  faulty.fault.rber = 0.0;
  // Stall every channel's first half millisecond.
  for (std::uint32_t c = 0; c < faulty.geometry.channels; ++c) {
    faulty.fault.channel_stalls.push_back({c, Time{}, 500 * kMicrosecond});
  }
  const ExperimentResult result = run_experiment(faulty, trace);

  EXPECT_GT(result.reliability.channel_stalls, 0u);
  EXPECT_GT(result.makespan, clean.makespan);
  EXPECT_EQ(result.reliability.read_retries, 0u);  // Stalls only delay.
}

// ---------- barrier drain under injected failures -----------------------------

TEST(Replay, BarriersDrainRetriedRequests) {
  // Two tile reads with a barrier between them: the second must wait for
  // the first's full retry traffic to complete.
  Trace gated;
  gated.add(NvmOp::kRead, Bytes{}, 8 * MiB);
  gated.add(NvmOp::kRead, 8 * MiB, 8 * MiB, /*not_before=*/Time{}, /*barrier=*/true);
  gated.add(NvmOp::kRead, 16 * MiB, 8 * MiB);
  Trace free_running;
  free_running.add(NvmOp::kRead, Bytes{}, 8 * MiB);
  free_running.add(NvmOp::kRead, 8 * MiB, 8 * MiB);
  free_running.add(NvmOp::kRead, 16 * MiB, 8 * MiB);

  ExperimentConfig faulty = cnl_ufs_config(NvmType::kSlc);
  faulty.fault.enabled = true;
  faulty.fault.rber = kRetryRber;

  const ExperimentResult with_barrier = run_experiment(faulty, gated);
  const ExperimentResult without = run_experiment(faulty, free_running);
  EXPECT_GT(with_barrier.reliability.read_retries, 0u);
  EXPECT_GE(with_barrier.makespan, without.makespan);
  EXPECT_FALSE(with_barrier.reliability.aborted);
}

TEST(TraceBarriers, SurviveSerialisation) {
  Trace trace;
  trace.add(NvmOp::kRead, Bytes{}, 4 * KiB);
  trace.add(NvmOp::kWrite, 4 * KiB, 4 * KiB, 7 * kMicrosecond, /*barrier=*/true);
  trace.add(NvmOp::kRead, 8 * KiB, 4 * KiB);

  const std::string path = ::testing::TempDir() + "barrier_trace.txt";
  trace.save(path);
  const Trace loaded = Trace::load(path);
  std::remove(path.c_str());

  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_FALSE(loaded[0].barrier);
  EXPECT_TRUE(loaded[1].barrier);
  EXPECT_EQ(loaded[1].not_before, 7 * kMicrosecond);
  EXPECT_FALSE(loaded[2].barrier);
}

// ---------- fault scenario files ---------------------------------------------

TEST(Scenario, RoundTripsThroughText) {
  FaultConfig config;
  config.enabled = true;
  config.seed = 99;
  config.rber = 1e-5;
  config.wear_slope = 2.5;
  config.stuck_dies.push_back({1, 2, 3, Time{4000}});
  config.channel_stalls.push_back({0, Time{1000}, Time{2000}});

  const std::string path = ::testing::TempDir() + "fault_scenario.txt";
  save_fault_scenario(config, path);
  const FaultConfig loaded = load_fault_scenario(path);
  std::remove(path.c_str());

  EXPECT_TRUE(loaded.enabled);
  EXPECT_EQ(loaded.seed, 99u);
  EXPECT_DOUBLE_EQ(loaded.rber, 1e-5);
  EXPECT_DOUBLE_EQ(loaded.wear_slope, 2.5);
  ASSERT_EQ(loaded.stuck_dies.size(), 1u);
  EXPECT_EQ(loaded.stuck_dies[0].die, 3u);
  EXPECT_EQ(loaded.stuck_dies[0].begin, Time{4000});
  ASSERT_EQ(loaded.channel_stalls.size(), 1u);
  EXPECT_EQ(loaded.channel_stalls[0].duration, Time{2000});
}

TEST(Scenario, ParsesCommentsAndRejectsGarbage) {
  const FaultConfig config = parse_fault_scenario(
      "# sweep point 3\n"
      "seed 7   # inline comment\n"
      "rber 1e-4\n"
      "\n"
      "stuck 0 1 2\n");
  EXPECT_EQ(config.seed, 7u);
  ASSERT_EQ(config.stuck_dies.size(), 1u);
  EXPECT_EQ(config.stuck_dies[0].begin, Time{0});

  EXPECT_THROW(parse_fault_scenario("frobnicate 1\n"), std::runtime_error);
  EXPECT_THROW(parse_fault_scenario("stuck 0\n"), std::runtime_error);
}

/// The message parse_fault_scenario() rejects `text` with ("" if none).
std::string scenario_error(const std::string& text) {
  try {
    parse_fault_scenario(text);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(Scenario, RejectsTrailingTokens) {
  const std::string error = scenario_error("# header\nseed 5 junk\n");
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("seed"), std::string::npos) << error;
  EXPECT_NE(error.find("'junk'"), std::string::npos) << error;
  EXPECT_NE(scenario_error("stall 0 1 2 3\n"), "");
}

TEST(Scenario, RejectsNegativeAndNonNumericFields) {
  const struct {
    const char* text;
    const char* field;
  } cases[] = {
      {"stuck -1 0 0\n", "channel"},       // Would wrap to 4294967295.
      {"stuck 0 0 0 abc\n", "begin_ps"},   // Would silently read as 0.
      {"stuck 0 0 0 -7\n", "begin_ps"},
      {"stall 0 100 -5\n", "duration_ps"},
      {"stall 0 -100 5\n", "begin_ps"},
      {"seed -1\n", "seed"},
      {"stuck 0 4294967296 0\n", "package"},  // Past uint32.
  };
  for (const auto& c : cases) {
    const std::string error = scenario_error(c.text);
    EXPECT_NE(error.find("line 1"), std::string::npos) << c.text << ": " << error;
    EXPECT_NE(error.find(c.field), std::string::npos) << c.text << ": " << error;
  }
}

TEST(Scenario, RejectsRberOutsideUnitInterval) {
  const std::string error = scenario_error("seed 1\nrber -3\n");
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("rber"), std::string::npos) << error;
  EXPECT_NE(scenario_error("rber 1.5\n"), "");
  EXPECT_NE(scenario_error("rber nan\n"), "");
  // The media-default sentinel save_fault_scenario writes, and the ends
  // of the unit interval, stay valid.
  EXPECT_EQ(parse_fault_scenario("rber -1\n").rber, -1.0);
  EXPECT_EQ(parse_fault_scenario("rber 0\n").rber, 0.0);
  EXPECT_EQ(parse_fault_scenario("rber 1\n").rber, 1.0);
}

TEST(Scenario, RejectsLoadErrorsNamingThePath) {
  const std::string path = ::testing::TempDir() + "bad_fault_scenario.txt";
  {
    std::ofstream out(path);
    out << "seed 3\nstall 0 10\n";
  }
  std::string error;
  try {
    load_fault_scenario(path);
  } catch (const std::runtime_error& e) {
    error = e.what();
  }
  std::remove(path.c_str());
  EXPECT_NE(error.find(path), std::string::npos) << error;
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
  EXPECT_NE(error.find("stall"), std::string::npos) << error;
}

TEST(Scenario, RejectsTargetsOutsideTheGeometryAtDeviceConstruction) {
  SsdConfig ssd;
  ssd.fault.enabled = true;
  ssd.fault.stuck_dies.push_back({0, 0, ssd.geometry.dies_per_package, Time{}});
  try {
    Ssd device(ssd);
    ADD_FAILURE() << "a stuck die outside the geometry was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("stuck"), std::string::npos) << e.what();
  }

  ssd.fault.stuck_dies.clear();
  ssd.fault.channel_stalls.push_back({ssd.geometry.channels, Time{}, kMicrosecond});
  try {
    Ssd device(ssd);
    ADD_FAILURE() << "a stall on a channel outside the geometry was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("stall"), std::string::npos) << e.what();
  }
}

// ---------- prefetcher retries ------------------------------------------------

// A Storage whose reads throw: the first `transient` attempts at every
// offset, and every attempt at an offset in `dead`. The prefetcher reads
// from its worker thread, hence the lock.
class FailingStorage : public Storage {
 public:
  FailingStorage(Storage& backing, std::uint32_t transient, std::set<Bytes> dead = {})
      : backing_(backing), transient_(transient), dead_(std::move(dead)) {}

  void read(Bytes offset, void* destination, Bytes size) override {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (dead_.count(offset) != 0 || attempts_[offset]++ < transient_) {
        ++failures_;
        throw std::runtime_error("injected read failure");
      }
    }
    backing_.read(offset, destination, size);
  }
  void write(Bytes offset, const void* source, Bytes size) override {
    backing_.write(offset, source, size);
  }

  std::uint64_t failures() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return failures_;
  }

 private:
  Storage& backing_;
  std::uint32_t transient_;
  std::set<Bytes> dead_;
  mutable std::mutex mutex_;
  std::map<Bytes, std::uint32_t> attempts_;
  std::uint64_t failures_ = 0;
};

TEST(PrefetcherFaults, TransientFailuresAreRetriedToSuccess) {
  MemoryStorage backing(4 * KiB);
  std::vector<std::uint8_t> pattern(KiB.value());
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    pattern[i] = static_cast<std::uint8_t>(i * 37);
  }
  for (std::uint64_t tile = 0; tile < 4; ++tile) {
    backing.write(tile * KiB, pattern.data(), Bytes{pattern.size()});
  }

  FailingStorage flaky(backing, /*transient=*/2);

  std::vector<TilePrefetcher::TileRef> tiles;
  for (std::uint64_t tile = 0; tile < 4; ++tile) tiles.push_back({tile * KiB, KiB});
  TilePrefetcher prefetcher(flaky, tiles, 2, /*max_read_retries=*/64);
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    const auto buffer = prefetcher.get(i);
    ASSERT_NE(buffer, nullptr);
    EXPECT_EQ(*buffer, pattern);
  }
  EXPECT_GT(prefetcher.stats().read_retries, 0u);
  EXPECT_EQ(prefetcher.stats().failed_tiles, 0u);
  EXPECT_GT(flaky.failures(), 0u);
}

TEST(PrefetcherFaults, PermanentFailureSurfacesInsteadOfHanging) {
  MemoryStorage backing(4 * KiB);
  FailingStorage dead(backing, /*transient=*/0, {2 * KiB});  // Tile 2 is unrecoverable.

  std::vector<TilePrefetcher::TileRef> tiles;
  for (std::uint64_t tile = 0; tile < 4; ++tile) tiles.push_back({tile * KiB, KiB});
  TilePrefetcher prefetcher(dead, tiles, 2, /*max_read_retries=*/3);
  EXPECT_NE(prefetcher.get(0), nullptr);
  EXPECT_NE(prefetcher.get(1), nullptr);
  EXPECT_THROW(prefetcher.get(2), std::runtime_error);
  EXPECT_EQ(prefetcher.stats().failed_tiles, 1u);
  EXPECT_EQ(prefetcher.stats().read_retries, 3u);
}

}  // namespace
}  // namespace nvmooc
