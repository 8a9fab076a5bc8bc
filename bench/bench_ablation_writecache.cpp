// Ablation — controller write-back DRAM cache. The evaluation's OoC
// workload is read-dominated, but its journal commits and Psi
// checkpoints hit TLC's brutal 440-6000 us programs head-on. This bench
// sweeps the device write buffer on a checkpoint-heavy variant of the
// workload to show what a write-back cache buys each medium.
#include "bench_common.hpp"
#include "common/string_util.hpp"
#include "fs/presets.hpp"
#include "ooc/workload.hpp"

namespace {

using namespace nvmooc;
using namespace nvmooc::bench;

const Bytes kBuffers[] = {Bytes{}, 4 * MiB, 16 * MiB, 64 * MiB};

Trace checkpoint_heavy_trace() {
  SyntheticWorkloadParams params;
  params.dataset_bytes = 128 * MiB;
  params.tile_bytes = 8 * MiB;
  params.sweeps = 4;
  params.checkpoint_bytes = 16 * MiB;  // Aggressive checkpointing.
  return synthesize_ooc_trace(params);
}

ExperimentConfig with_buffer(NvmType media, Bytes buffer) {
  ExperimentConfig config = cnl_fs_config(ext4_behavior(), media);
  config.controller.write_buffer = buffer;
  config.name = "CNL-EXT4-WB-" + std::string(buffer != Bytes{} ? human_bytes(buffer.value()) : "off");
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench(argc, argv, Flags::kInstruments);
  const Trace trace = checkpoint_heavy_trace();
  std::vector<ExperimentConfig> configs;
  for (NvmType media : all_media()) {
    for (Bytes buffer : kBuffers) configs.push_back(with_buffer(media, buffer));
  }
  bench.register_cells(configs, trace);
  return bench.finish([&] {
    std::printf("\n== Ablation: controller write-back cache, checkpoint-heavy OoC (MB/s) ==\n");
    std::vector<std::string> header = {"Media"};
    for (Bytes buffer : kBuffers) {
      header.emplace_back(buffer != Bytes{} ? human_bytes(buffer.value()) : "write-through");
    }
    Table table(header);
    for (NvmType media : all_media()) {
      std::vector<double> row;
      for (Bytes buffer : kBuffers) {
        const ExperimentResult* result = bench.find(with_buffer(media, buffer).name, media);
        row.push_back(result ? result->achieved_mbps : 0.0);
      }
      table.add_row_numeric(std::string(to_string(media)), row, 0);
    }
    table.print();
    std::printf(
        "\nThe cache hides program latency behind checkpoints — largest for TLC and\n"
        "PCM (slow writes), negligible once the buffer covers a whole checkpoint.\n");
  });
}
