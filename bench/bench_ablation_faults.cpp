// Ablation — reliability machinery under fault injection. Sweeps the raw
// bit error rate against the read-retry ladder depth on the CNL-UFS SLC
// replay: at low RBER the ladder is free insurance, at mid RBER it trades
// retry latency for zero data loss, and past the ECC operating point the
// device sheds capacity and leans on the ION replica — the effective
// (device-delivered) bandwidth falls away from the achieved number.
#include "bench_common.hpp"
#include "ooc/workload.hpp"

namespace {

using namespace nvmooc;
using namespace nvmooc::bench;

const double kRbers[] = {0.0, 1e-3, 4e-3, 8e-3, 1.5e-2};
const std::uint32_t kLadders[] = {0, 2, 4, 8};

Trace fault_trace() {
  SyntheticWorkloadParams params;
  params.dataset_bytes = 64 * MiB;
  params.tile_bytes = 8 * MiB;
  params.sweeps = 2;
  params.checkpoint_bytes = Bytes{};
  return synthesize_ooc_trace(params);
}

ExperimentConfig with_faults(double rber, std::uint32_t ladder) {
  ExperimentConfig config = cnl_ufs_config(NvmType::kSlc);
  config.controller.ecc.max_read_retries = ladder;
  if (rber > 0.0) {
    config.fault.enabled = true;
    config.fault.rber = rber;
  }
  config.name = "CNL-UFS-rber" + std::to_string(rber) + "-L" + std::to_string(ladder);
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench(argc, argv, Flags::kInstruments);
  const Trace trace = fault_trace();
  std::vector<ExperimentConfig> configs;
  for (double rber : kRbers) {
    for (std::uint32_t ladder : kLadders) configs.push_back(with_faults(rber, ladder));
  }
  bench.register_cells(configs, trace);
  return bench.finish([&] {
    std::printf("\n== Ablation: RBER x retry-ladder depth, CNL-UFS SLC ==\n");
    std::printf("Each cell: effective MB/s (device-delivered; replica-recovered bytes"
                " excluded).\n");
    std::vector<std::string> header = {"RBER"};
    for (std::uint32_t ladder : kLadders) {
      header.push_back("ladder=" + std::to_string(ladder));
    }
    Table table(header);
    for (double rber : kRbers) {
      std::vector<double> row;
      for (std::uint32_t ladder : kLadders) {
        const ExperimentResult* result =
            bench.find(with_faults(rber, ladder).name, NvmType::kSlc);
        row.push_back(result == nullptr || result->reliability.aborted
                          ? 0.0
                          : result->reliability.effective_mbps);
      }
      char label[32];
      std::snprintf(label, sizeof(label), "%.1e", rber);
      table.add_row_numeric(label, row, 0);
    }
    table.print();
    std::printf(
        "\nA deeper ladder converts uncorrectable losses into retry latency: at\n"
        "mid RBER the ladder=0 column collapses onto the replica (or aborts)\n"
        "while ladder>=2 keeps the device delivering at ~15%% retry overhead.\n"
        "With injection off (rber 0) every column matches the clean replay\n"
        "exactly.\n");
  });
}
