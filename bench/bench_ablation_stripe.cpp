// Ablation — GPFS stripe size. The paper (Section 4.2): "Larger stripes
// combat this randomizing trend, but only to limited extents." Sweeps the
// stripe size on the ION-GPFS configuration and reports achieved
// bandwidth plus the scrambling it causes.
#include "bench_common.hpp"
#include "common/string_util.hpp"
#include "fs/presets.hpp"

namespace {

using namespace nvmooc;
using namespace nvmooc::bench;

ExperimentConfig ion_with_stripe(NvmType media, Bytes stripe) {
  ExperimentConfig config = ion_gpfs_config(media);
  config.fs.stripe_size = stripe;
  config.fs.max_request = stripe;  // GPFS issues stripe-chunk requests.
  config.name = "ION-GPFS-" + std::string(human_bytes(stripe.value()));
  return config;
}

const Bytes kStripes[] = {64 * KiB, 128 * KiB, 256 * KiB, 512 * KiB, 1 * MiB};

}  // namespace

int main(int argc, char** argv) {
  Bench bench(argc, argv, Flags::kInstruments);
  std::vector<ExperimentConfig> configs;
  for (Bytes stripe : kStripes) {
    for (NvmType media : {NvmType::kTlc, NvmType::kSlc}) {
      configs.push_back(ion_with_stripe(media, stripe));
    }
  }
  bench.register_cells(configs, standard_trace());
  return bench.finish([&] {
    std::printf("\n== Ablation: GPFS stripe size (achieved MB/s) ==\n");
    Table table({"Stripe", "TLC", "SLC", "TLC PAL4 %"});
    for (Bytes stripe : kStripes) {
      const std::string name = "ION-GPFS-" + std::string(human_bytes(stripe.value()));
      const ExperimentResult* tlc = bench.find(name, NvmType::kTlc);
      const ExperimentResult* slc = bench.find(name, NvmType::kSlc);
      if (!tlc || !slc) continue;
      table.add_row({std::string(human_bytes(stripe.value())),
                     format("%.0f", tlc->achieved_mbps), format("%.0f", slc->achieved_mbps),
                     format("%.0f", 100.0 * tlc->pal_fraction[3])});
    }
    table.print();
    std::printf(
        "\nLarger stripes recover device parallelism (PAL4 share rises), but the\n"
        "network keeps the achieved bandwidth pinned — 'only to limited extents'.\n");
  });
}
