// Ablation — the block-layer coalescing cap, i.e. the EXT4 -> EXT4-L knob
// of Section 4.3 swept as a continuum. Shows the ~1 GB/s "free" gain from
// simply letting larger requests through.
#include "bench_common.hpp"
#include "common/string_util.hpp"
#include "fs/presets.hpp"

namespace {

using namespace nvmooc;
using namespace nvmooc::bench;

const Bytes kCaps[] = {32 * KiB, 64 * KiB, 128 * KiB, 256 * KiB, 512 * KiB, 1 * MiB, 2 * MiB};

ExperimentConfig ext4_with_cap(NvmType media, Bytes cap) {
  FsBehavior fs = ext4_behavior();
  fs.max_request = cap;
  // Hold outstanding *bytes* roughly constant (the page-cache budget the
  // kernel actually fixes) so the sweep isolates request size.
  const Bytes window = 2 * MiB;
  fs.queue_depth = static_cast<std::uint32_t>(std::max<std::uint64_t>(2, window / cap));
  fs.name = "EXT4-CAP-" + std::string(human_bytes(cap.value()));
  return cnl_fs_config(fs, media);
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench(argc, argv, Flags::kInstruments);
  std::vector<ExperimentConfig> configs;
  for (Bytes cap : kCaps) {
    for (NvmType media : {NvmType::kTlc, NvmType::kSlc, NvmType::kPcm}) {
      configs.push_back(ext4_with_cap(media, cap));
    }
  }
  bench.register_cells(configs, standard_trace());
  return bench.finish([&] {
    std::printf("\n== Ablation: block-layer coalescing cap on EXT4 (achieved MB/s) ==\n");
    Table table({"max_request", "TLC", "SLC", "PCM"});
    for (Bytes cap : kCaps) {
      const std::string name = "CNL-EXT4-CAP-" + std::string(human_bytes(cap.value()));
      std::vector<double> row;
      for (NvmType media : {NvmType::kTlc, NvmType::kSlc, NvmType::kPcm}) {
        const ExperimentResult* result = bench.find(name, media);
        row.push_back(result ? result->achieved_mbps : 0.0);
      }
      table.add_row_numeric(std::string(human_bytes(cap.value())), row, 0);
    }
    table.print();
    std::printf(
        "\nThe EXT4 -> EXT4-L jump of Figure 7a is this curve: NAND gains steeply with\n"
        "request size (more dies per request); PCM is already interface-bound.\n");
  });
}
