// Figure 7 — "Performance achieved and left-over comparison between
// traditional ION-local architecture on GPFS and CNL architecture using
// various file systems and four different NVM types."
//
// Regenerates Figure 7a (bandwidth achieved) and Figure 7b (bandwidth
// remaining), and prints the Table 2 configuration matrix for reference.
#include "bench_common.hpp"

namespace nvmooc::bench {
namespace {

void print_table2() {
  std::printf("\n== Table 2: evaluated configurations ==\n");
  Table table({"Location-FileSystem", "Controller", "Bus", "NVM bus", "Lanes"});
  for (const ExperimentConfig& config : all_configs(NvmType::kSlc)) {
    table.add_row({config.name,
                   config.host_link.bridge_latency > Time{} ? "Bridged" : "Native",
                   config.host_link.gigatransfers_per_sec > 6 ? "PCIe 3.0" : "PCIe 2.0",
                   config.nvm_bus.describe(),
                   std::to_string(config.host_link.lanes)});
  }
  table.print();
}

double achieved(const ExperimentResult& r) { return r.achieved_mbps; }
double remaining(const ExperimentResult& r) { return r.remaining_mbps; }

}  // namespace
}  // namespace nvmooc::bench

int main(int argc, char** argv) {
  using namespace nvmooc;
  using namespace nvmooc::bench;

  Bench bench(argc, argv, Flags::kInstruments);
  bench.register_cells(sweep(&figure7_configs, all_media()), standard_trace());
  return bench.finish([&] {
    print_table2();
    const auto names = names_of(figure7_configs(NvmType::kSlc));
    bench.print_metric_table("Figure 7a: Bandwidth Achieved (MB/s)", names, all_media(),
                             achieved);
    bench.print_metric_table("Figure 7b: Bandwidth Remaining (MB/s)", names, all_media(),
                             remaining);

    std::printf(
        "\nPaper shape checks: ION-GPFS network-bound and flat across NAND; EXT2 the\n"
        "worst CNL FS; BTRFS the best untuned FS; EXT4-L ~1 GB/s over EXT4; UFS at the\n"
        "PCIe 2.0 x8 ceiling; PCM compresses the FS spread to the interface limit.\n");
  });
}
