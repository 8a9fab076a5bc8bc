// Ablation — pre-load amortisation. Compute-local NVM requires copying
// the dataset from the cluster's magnetic storage to the local SSD before
// the solve ("pre-loaded ... prior to beginning the computation", Section
// 3.1). The paper argues the cost is hidden by overlap; this bench makes
// the worst case explicit: if the pre-load is NOT overlapped, after how
// many solver sweeps does CNL still beat ION-GPFS? (The crossover.)
#include <map>

#include "bench_common.hpp"
#include "common/string_util.hpp"
#include "interconnect/network.hpp"

namespace {

using namespace nvmooc;
using namespace nvmooc::bench;

constexpr Bytes kDataset = 256 * MiB;

Trace sweeps_trace(std::size_t sweeps) {
  SyntheticWorkloadParams params;
  params.dataset_bytes = kDataset;
  params.tile_bytes = 8 * MiB;
  params.sweeps = sweeps;
  params.checkpoint_bytes = Bytes{};
  return synthesize_ooc_trace(params);
}

/// Un-overlapped pre-load cost: the dataset crosses the network once and
/// is written to the local SSD (write bandwidth bound).
Time preload_cost(NvmType media) {
  // Network leg: streaming a large sequential copy over the GPFS path.
  const double network_bw = network_path_throughput(ion_gpfs_path(), 8 * MiB);
  const Time network_time = transfer_time(kDataset, network_bw);
  // Device leg: measured by writing the dataset to a fresh device.
  SsdConfig config;
  config.media = media;
  Ssd ssd(config);
  Time last;
  for (Bytes offset; offset < kDataset; offset += 8 * MiB) {
    last = std::max(last, ssd.submit({NvmOp::kWrite, offset, 8 * MiB, false, false},
                                     last)  // Streamed, not parallel: worst case.
                              .media_end);
  }
  return std::max(network_time, last);  // Copy pipeline: max of the legs.
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench(argc, argv, Flags::kInstruments);
  const Trace one_sweep = sweeps_trace(1);
  std::map<NvmType, Time> preload;
  for (NvmType media : all_media()) {
    bench.add("preload/" + std::string(to_string(media)),
              [&preload, media] { preload[media] = preload_cost(media); });
    bench.register_cells({ion_gpfs_config(media), cnl_ufs_config(media)}, one_sweep);
  }
  return bench.finish([&] {
    std::printf("\n== Ablation: un-overlapped pre-load amortisation (256 MiB dataset) ==\n");
    Table table({"Media", "Preload (ms)", "ION 1-sweep (ms)", "CNL 1-sweep (ms)",
                 "Crossover (sweeps)"});
    for (NvmType media : all_media()) {
      const auto cost = preload.find(media);
      const ExperimentResult* ion1 = bench.find(ion_gpfs_config(media).name, media);
      const ExperimentResult* cnl1 = bench.find(cnl_ufs_config(media).name, media);
      if (cost == preload.end() || ion1 == nullptr || cnl1 == nullptr) continue;
      // Crossover: smallest k with preload + k * cnl_sweep < k * ion_sweep.
      const double ion_ms =
          static_cast<double>(ion1->makespan) / static_cast<double>(kMillisecond);
      const double cnl_ms =
          static_cast<double>(cnl1->makespan) / static_cast<double>(kMillisecond);
      const double preload_ms =
          static_cast<double>(cost->second) / static_cast<double>(kMillisecond);
      std::string crossover = "never";
      if (ion_ms > cnl_ms) {
        crossover = format("%.1f", preload_ms / (ion_ms - cnl_ms));
      }
      table.add_row({std::string(to_string(media)), format("%.0f", preload_ms),
                     format("%.0f", ion_ms), format("%.0f", cnl_ms), crossover});
    }
    table.print();
    std::printf(
        "\nLOBPCG runs tens-to-hundreds of sweeps, so even a fully serial pre-load\n"
        "amortises within the first few iterations — and the paper overlaps it with\n"
        "the previous job entirely.\n");
  });
}
