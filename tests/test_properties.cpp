// Property-based suites (parameterized over configurations, media types,
// file systems and request shapes): invariants that must hold for *every*
// point in the sweep, not just the defaults the unit tests exercise.
#include <gtest/gtest.h>

#include <tuple>

#include "cluster/configs.hpp"
#include "cluster/engine.hpp"
#include "fs/presets.hpp"
#include "ooc/workload.hpp"
#include "trace/synthetic.hpp"

namespace nvmooc {
namespace {

// ---------------------------------------------------------------------
// Every Table 2 configuration x every NVM type: engine-level invariants.
// ---------------------------------------------------------------------

struct ConfigPoint {
  std::size_t config_index;
  NvmType media;
};

class EngineInvariants
    : public ::testing::TestWithParam<std::tuple<int, NvmType>> {
 protected:
  static const ExperimentResult& result() {
    // One replay per parameter point, cached (the suite asserts many
    // invariants against the same run).
    static std::map<std::pair<int, int>, ExperimentResult> cache;
    const auto [index, media] = GetParam();
    const auto key = std::make_pair(index, static_cast<int>(media));
    auto it = cache.find(key);
    if (it == cache.end()) {
      SyntheticWorkloadParams params;
      params.dataset_bytes = 48 * MiB;
      params.tile_bytes = 8 * MiB;
      params.sweeps = 1;
      params.checkpoint_bytes = 1 * MiB;
      const Trace trace = synthesize_ooc_trace(params);
      const auto configs = all_configs(media);
      it = cache.emplace(key, run_experiment(configs.at(static_cast<std::size_t>(index)),
                                             trace))
               .first;
    }
    return it->second;
  }

  static ExperimentConfig config() {
    const auto [index, media] = GetParam();
    return all_configs(media).at(static_cast<std::size_t>(index));
  }
};

TEST_P(EngineInvariants, BandwidthWithinPhysicalCeilings) {
  const ExperimentResult& r = result();
  const ExperimentConfig c = config();
  EXPECT_GT(r.achieved_mbps, 0.0);
  // Cannot exceed the host link.
  EXPECT_LE(r.achieved_mbps, c.host_link.byte_rate() / 1e6 * 1.01);
  // Cannot exceed the device-side media capability.
  SsdConfig ssd_config;
  ssd_config.geometry = c.geometry;
  ssd_config.media = c.media;
  ssd_config.bus = c.nvm_bus;
  Ssd probe(ssd_config);
  EXPECT_LE(r.achieved_mbps, probe.media_capability_bytes_per_sec() / 1e6 * 1.01);
  // ION paths cannot exceed the network either.
  if (c.location == StorageLocation::kIonLocal) {
    EXPECT_LE(r.achieved_mbps, c.network.wire.byte_rate() / 1e6 * 1.01);
  }
}

TEST_P(EngineInvariants, FractionsAreDistributions) {
  const ExperimentResult& r = result();
  double pal_sum = 0.0;
  for (double f : r.pal_fraction) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    pal_sum += f;
  }
  EXPECT_NEAR(pal_sum, 1.0, 1e-9);
  double phase_sum = 0.0;
  for (double f : r.phase_fraction) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    phase_sum += f;
  }
  EXPECT_NEAR(phase_sum, 1.0, 1e-9);
}

TEST_P(EngineInvariants, UtilizationsBounded) {
  const ExperimentResult& r = result();
  EXPECT_GE(r.channel_utilization, 0.0);
  EXPECT_LE(r.channel_utilization, 1.0);
  EXPECT_GE(r.package_utilization, 0.0);
  EXPECT_LE(r.package_utilization, 1.0);
  // Channel-subsystem busy can never be below package busy (it contains
  // the packages).
  EXPECT_GE(r.channel_utilization, r.package_utilization - 1e-9);
}

TEST_P(EngineInvariants, AccountingIsConsistent) {
  const ExperimentResult& r = result();
  EXPECT_GT(r.makespan, Time{0});
  EXPECT_GT(r.device_requests, 0u);
  EXPECT_GT(r.transactions, 0u);
  EXPECT_GE(r.transactions, r.device_requests / 8);  // Sanity, not exact.
  EXPECT_EQ(r.payload_bytes, 49 * MiB);              // 48 data + 1 checkpoint.
  EXPECT_GE(r.remaining_mbps, 0.0);
}

TEST_P(EngineInvariants, Deterministic) {
  // Re-running the same point gives bit-identical results.
  const auto [index, media] = GetParam();
  SyntheticWorkloadParams params;
  params.dataset_bytes = 48 * MiB;
  params.tile_bytes = 8 * MiB;
  params.sweeps = 1;
  params.checkpoint_bytes = 1 * MiB;
  const Trace trace = synthesize_ooc_trace(params);
  const auto config = all_configs(media).at(static_cast<std::size_t>(index));
  const ExperimentResult a = run_experiment(config, trace);
  const ExperimentResult b = run_experiment(config, trace);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_DOUBLE_EQ(a.achieved_mbps, b.achieved_mbps);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigsAllMedia, EngineInvariants,
    ::testing::Combine(::testing::Range(0, 13),
                       ::testing::Values(NvmType::kSlc, NvmType::kMlc, NvmType::kTlc,
                                         NvmType::kPcm)),
    [](const ::testing::TestParamInfo<std::tuple<int, NvmType>>& info) {
      const int index = std::get<0>(info.param);
      const NvmType media = std::get<1>(info.param);
      std::string name = all_configs(media).at(static_cast<std::size_t>(index)).name +
                         "_" + std::string(to_string(media));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------
// Every file-system preset: transformation invariants.
// ---------------------------------------------------------------------

class FsInvariants : public ::testing::TestWithParam<int> {
 protected:
  static FsBehavior behavior() {
    auto all = all_local_filesystems();
    all.push_back(gpfs_behavior());
    return all.at(static_cast<std::size_t>(GetParam()));
  }
};

TEST_P(FsInvariants, DataBytesConserved) {
  FileSystemModel fs(behavior());
  fs.mount(GiB);
  Rng rng(GetParam() + 1);
  for (int i = 0; i < 200; ++i) {
    const Bytes offset{rng.next_below((GiB - 2 * MiB).value())};
    const Bytes size{1 + rng.next_below((2 * MiB).value())};
    const NvmOp op = rng.next_bool(0.8) ? NvmOp::kRead : NvmOp::kWrite;
    Bytes data_bytes;
    for (const BlockRequest& r : fs.submit({op, offset, size, Time{}})) {
      if (!r.internal) {
        data_bytes += r.size;
        EXPECT_EQ(r.op, op);
      }
    }
    EXPECT_EQ(data_bytes, size) << behavior().name;
  }
}

TEST_P(FsInvariants, RequestsRespectMergeCap) {
  const FsBehavior fs_behavior = behavior();
  FileSystemModel fs(fs_behavior);
  fs.mount(GiB);
  for (const BlockRequest& r : fs.submit({NvmOp::kRead, Bytes{123}, 16 * MiB, Time{}})) {
    if (!r.internal) {
      EXPECT_LE(r.size, fs_behavior.max_request);
    }
  }
}

TEST_P(FsInvariants, InternalTrafficLandsOutsideData) {
  FileSystemModel fs(behavior());
  const Bytes extent = 256 * MiB;
  fs.mount(extent);
  for (Bytes offset; offset < extent; offset += 2 * MiB) {
    for (const BlockRequest& r : fs.submit({NvmOp::kWrite, offset, 2 * MiB, Time{}})) {
      if (r.internal) {
        EXPECT_GE(r.offset, extent);
      }
    }
  }
}

TEST_P(FsInvariants, MappingIsStable) {
  FileSystemModel a(behavior());
  FileSystemModel b(behavior());
  a.mount(GiB);
  b.mount(GiB);
  for (Bytes offset; offset < 64 * MiB; offset += 1 * MiB + 4 * KiB) {
    EXPECT_EQ(a.map_offset(offset), b.map_offset(offset));
  }
}

INSTANTIATE_TEST_SUITE_P(AllPresets, FsInvariants, ::testing::Range(0, 9),
                         [](const ::testing::TestParamInfo<int>& info) {
                           auto all = all_local_filesystems();
                           all.push_back(gpfs_behavior());
                           std::string name =
                               all.at(static_cast<std::size_t>(info.param)).name;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------
// Media property sweep: the SSD respects timing physics for every NVM
// type and every request shape.
// ---------------------------------------------------------------------

class MediaInvariants
    : public ::testing::TestWithParam<std::tuple<NvmType, Bytes>> {};

TEST_P(MediaInvariants, LatencyNeverBeatsPhysics) {
  const auto [media, request_size] = GetParam();
  SsdConfig config;
  config.media = media;
  Ssd ssd(config);
  ssd.preload(GiB);
  const RequestResult r = ssd.submit({NvmOp::kRead, Bytes{}, request_size, false, false}, Time{});
  const NvmTiming timing = ssd.timing();
  // Lower bound: one cell activation plus moving the payload over the
  // aggregate channel rate.
  const double agg = config.bus.byte_rate() * config.geometry.channels;
  const Time floor_time =
      timing.read_time + transfer_time(request_size, agg);
  EXPECT_GE(r.media_end, floor_time);
  EXPECT_GT(r.transactions, 0u);
}

TEST_P(MediaInvariants, ThroughputMonotoneInRequestSize) {
  // For a fixed total volume, bigger requests never lose badly: the
  // makespan with 4x larger requests must not be worse than 1.05x.
  const auto [media, request_size] = GetParam();
  if (request_size * 4 > 4 * MiB) GTEST_SKIP();
  auto makespan = [&](Bytes request) {
    SsdConfig config;
    config.media = media;
    Ssd ssd(config);
    ssd.preload(64 * MiB);
    Time last;
    for (Bytes offset; offset < 16 * MiB; offset += request) {
      last = std::max(last, ssd.submit({NvmOp::kRead, offset, request, false, false}, Time{})
                                .media_end);
    }
    return last;
  };
  EXPECT_LE(makespan(request_size * 4), makespan(request_size) * 105 / 100);
}

INSTANTIATE_TEST_SUITE_P(
    MediaByRequest, MediaInvariants,
    ::testing::Combine(::testing::Values(NvmType::kSlc, NvmType::kMlc, NvmType::kTlc,
                                         NvmType::kPcm),
                       ::testing::Values(Bytes{8 * KiB}, Bytes{64 * KiB}, Bytes{512 * KiB},
                                         Bytes{4 * MiB})),
    [](const ::testing::TestParamInfo<std::tuple<NvmType, Bytes>>& info) {
      const NvmType media = std::get<0>(info.param);
      const Bytes size = std::get<1>(info.param);
      return std::string(to_string(media)) + "_" + std::to_string(size / KiB) + "KiB";
    });

// ---------------------------------------------------------------------
// Trace generators: structural properties over seeds.
// ---------------------------------------------------------------------

class TraceSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceSeedSweep, RandomTraceWithinBounds) {
  Rng rng(GetParam());
  const Trace trace = random_read_trace(GiB, 64 * KiB, 300, rng);
  for (const PosixRequest& r : trace.requests()) {
    EXPECT_LE(r.offset + r.size, GiB);
    EXPECT_EQ(r.size, 64 * KiB);
  }
}

TEST_P(TraceSeedSweep, ZipfNeverEscapesExtent) {
  // Zipf ranks pick blocks of an extent (the web graph's link targets).
  Rng rng(GetParam());
  const std::uint64_t blocks = 512 * MiB / (128 * KiB);
  for (int i = 0; i < 300; ++i) EXPECT_LT(rng.next_zipf(blocks, 1.3), blocks);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceSeedSweep,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

}  // namespace
}  // namespace nvmooc
