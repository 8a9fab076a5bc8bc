// Ablation — PAQ-style out-of-order dispatch (queue backfill) on/off.
// The controller normally lets short transfers slot into channel-schedule
// holes (the paper builds on the authors' PAQ work, ISCA'12); this bench
// quantifies what that buys per file system and medium.
#include "bench_common.hpp"
#include "common/string_util.hpp"
#include "fs/presets.hpp"

namespace {

using namespace nvmooc;
using namespace nvmooc::bench;

ExperimentConfig with_backfill(ExperimentConfig config, bool on) {
  config.controller.queue_backfill = on;
  config.name += on ? "+PAQ" : "-FIFO";
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench(argc, argv, Flags::kInstruments);
  std::vector<ExperimentConfig> bases;
  for (NvmType media : {NvmType::kTlc, NvmType::kPcm}) {
    bases.push_back(cnl_fs_config(ext4_behavior(), media));
    bases.push_back(cnl_fs_config(ext2_behavior(), media));
    bases.push_back(cnl_ufs_config(media));
  }
  std::vector<ExperimentConfig> configs;
  for (const ExperimentConfig& base : bases) {
    for (bool on : {false, true}) configs.push_back(with_backfill(base, on));
  }
  bench.register_cells(configs, standard_trace());
  return bench.finish([&] {
    std::printf("\n== Ablation: out-of-order dispatch (PAQ) vs strict FIFO (MB/s) ==\n");
    Table table({"Configuration", "Media", "FIFO", "PAQ", "gain"});
    for (const ExperimentConfig& base : bases) {
      const ExperimentResult* fifo = bench.find(base.name + "-FIFO", base.media);
      const ExperimentResult* paq = bench.find(base.name + "+PAQ", base.media);
      if (!fifo || !paq) continue;
      table.add_row({base.name, std::string(to_string(base.media)),
                     format("%.0f", fifo->achieved_mbps), format("%.0f", paq->achieved_mbps),
                     format("%+.1f%%",
                            100.0 * (paq->achieved_mbps / fifo->achieved_mbps - 1.0))});
    }
    table.print();
    std::printf(
        "\nBackfill matters most when small metadata reads contend with streaming data\n"
        "(traditional FS); UFS's uniform large requests leave few holes to fill.\n");
  });
}
