// Figure 9 — "Average channel and package utilizations across all
// considered architectures and file systems" (all 13 configurations of
// Table 2, four NVM types each).
#include "bench_common.hpp"

namespace {

double channel_pct(const nvmooc::ExperimentResult& r) { return 100.0 * r.channel_utilization; }
double package_pct(const nvmooc::ExperimentResult& r) { return 100.0 * r.package_utilization; }

}  // namespace

int main(int argc, char** argv) {
  using namespace nvmooc;
  using namespace nvmooc::bench;

  Bench bench(argc, argv, Flags::kInstruments);
  bench.register_cells(sweep(&all_configs, all_media()), standard_trace());
  return bench.finish([&] {
    const auto names = names_of(all_configs(NvmType::kSlc));
    bench.print_metric_table("Figure 9a: Channel-Level Utilization (%)", names, all_media(),
                             channel_pct);
    bench.print_metric_table("Figure 9b: Package-Level Utilization (%)", names, all_media(),
                             package_pct);

    std::printf(
        "\nPaper shape checks: ION-GPFS keeps channels hot (striping touches every\n"
        "channel) while package utilisation stays low; UFS-based configurations reach\n"
        "near-full channel utilisation, and the NATIVE variants drive packages hard.\n");
  });
}
