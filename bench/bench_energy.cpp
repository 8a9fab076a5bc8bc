// Extension — energy per byte of OoC work. The paper's Section 1 argues
// the traditional in-DRAM approach carries "high energy use" of memory
// and network "over time"; this bench quantifies the claim with the
// repository's energy model: joules per MiB moved for each architecture,
// plus the distributed-DRAM alternative holding the same dataset
// resident for the same duration.
#include "bench_common.hpp"
#include "fs/presets.hpp"
#include "cluster/energy.hpp"
#include "common/string_util.hpp"

int main(int argc, char** argv) {
  using namespace nvmooc;
  using namespace nvmooc::bench;

  Bench bench(argc, argv, Flags::kInstruments);
  const ExperimentConfig ion_config = ion_gpfs_config(NvmType::kMlc);
  const std::vector<ExperimentConfig> configs = {
      ion_config, cnl_fs_config(ext4_behavior(), NvmType::kMlc), cnl_ufs_config(NvmType::kMlc),
      cnl_native16_config(NvmType::kMlc)};
  bench.register_cells(configs, standard_trace());
  return bench.finish([&] {
    std::printf("\n== Extension: energy per unit of OoC work (MLC, standard workload) ==\n");
    Table table({"Configuration", "MB/s", "cell J", "bus J", "link+net J", "idle J",
                 "total J", "mJ/MiB"});
    for (const ExperimentConfig& config : configs) {
      const ExperimentResult* result = bench.find(config.name, config.media);
      if (result == nullptr) continue;
      const EnergyReport energy = estimate_energy(
          result->controller, *result, config.location == StorageLocation::kIonLocal);
      table.add_row({config.name, format("%.0f", result->achieved_mbps),
                     format("%.2f", energy.cell_joules), format("%.2f", energy.bus_joules),
                     format("%.3f", energy.link_joules + energy.network_joules),
                     format("%.2f", energy.idle_joules), format("%.2f", energy.total_joules),
                     format("%.1f", energy.mj_per_mib)});
    }
    table.print();

    // The distributed-DRAM alternative: hold the dataset resident in
    // cluster memory for as long as the slowest replay took, and ship the
    // same traffic over the fabric.
    const ExperimentResult* ion = bench.find(ion_config.name, ion_config.media);
    if (ion == nullptr) return;
    const double dram = in_memory_alternative_joules(
        standard_trace().extent(), standard_trace().stats().total_bytes, ion->makespan);
    std::printf(
        "\nDistributed-DRAM alternative (dataset resident for the ION run's %.0f ms):\n"
        "%.2f J for refresh+network alone — before any compute-node DRAM is counted.\n"
        "Idle-floor dominance in the slow configurations is the paper's energy story:\n"
        "finishing the I/O sooner on local NVM saves energy quadratically.\n",
        static_cast<double>(ion->makespan) / static_cast<double>(kMillisecond), dram);
  });
}
