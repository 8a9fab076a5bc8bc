// Compare every file system of Table 2 on one NVM type: the Figure 7
// experiment as an interactive tool.
//
// Run: ./build/examples/fs_compare [slc|mlc|tlc|pcm] [dataset_MiB]
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "cluster/configs.hpp"
#include "cluster/engine.hpp"
#include "common/table.hpp"
#include "common/string_util.hpp"
#include "fs/presets.hpp"
#include "obs/cli.hpp"
#include "ooc/workload.hpp"

int main(int argc, char** argv) {
  using namespace nvmooc;

  NvmType media = NvmType::kTlc;
  if (argc > 1) {
    if (!std::strcmp(argv[1], "slc")) media = NvmType::kSlc;
    else if (!std::strcmp(argv[1], "mlc")) media = NvmType::kMlc;
    else if (!std::strcmp(argv[1], "tlc")) media = NvmType::kTlc;
    else if (!std::strcmp(argv[1], "pcm")) media = NvmType::kPcm;
    else {
      std::fprintf(stderr, "usage: %s [slc|mlc|tlc|pcm] [dataset_MiB]\n", argv[0]);
      return 1;
    }
  }
  std::uint64_t dataset_mib = 256;
  if (argc > 2 && !obs::parse_number_flag("dataset_MiB", argv[2], std::uint64_t{1},
                                          ~std::uint64_t{0} / MiB.value(), dataset_mib)) {
    return 1;
  }
  const Bytes dataset = dataset_mib * MiB;

  SyntheticWorkloadParams workload;
  workload.dataset_bytes = dataset;
  workload.tile_bytes = 8 * MiB;
  workload.sweeps = 2;
  workload.checkpoint_bytes = 4 * MiB;
  const Trace trace = synthesize_ooc_trace(workload);

  std::printf("OoC replay on %s: %.0f MiB dataset, %zu requests, %.0f MiB moved\n\n",
              std::string(to_string(media)).c_str(), static_cast<double>(dataset) / static_cast<double>(MiB),
              trace.size(), static_cast<double>(trace.stats().total_bytes) / static_cast<double>(MiB));

  Table table({"Configuration", "MB/s", "vs ION", "chan%", "pkg%", "PAL4%",
               "device reqs"});
  const ExperimentResult ion = run_experiment(ion_gpfs_config(media), trace);
  auto add = [&](const ExperimentResult& result) {
    table.add_row({result.name, format("%.0f", result.achieved_mbps),
                   format("%.2fx", result.achieved_mbps / ion.achieved_mbps),
                   format("%.0f", 100.0 * result.channel_utilization),
                   format("%.0f", 100.0 * result.package_utilization),
                   format("%.0f", 100.0 * result.pal_fraction[3]),
                   with_commas(static_cast<long long>(result.device_requests))});
  };
  add(ion);
  for (const FsBehavior& fs : all_local_filesystems()) {
    add(run_experiment(cnl_fs_config(fs, media), trace));
  }
  add(run_experiment(cnl_ufs_config(media), trace));
  add(run_experiment(cnl_native16_config(media), trace));
  table.print();
  return 0;
}
