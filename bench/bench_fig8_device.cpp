// Figure 8 — "Performance achieved and left-over beginning with the basic
// UFS architecture and extending through increased PCIe lanes and
// improved NVM bus frequency architectures."
//
// Regenerates Figure 8a (bandwidth achieved) and 8b (bandwidth remaining)
// for CNL-UFS, CNL-BRIDGE-16, CNL-NATIVE-8 and CNL-NATIVE-16.
#include "bench_common.hpp"

namespace {

double achieved(const nvmooc::ExperimentResult& r) { return r.achieved_mbps; }
double remaining(const nvmooc::ExperimentResult& r) { return r.remaining_mbps; }

}  // namespace

int main(int argc, char** argv) {
  using namespace nvmooc;
  using namespace nvmooc::bench;

  Bench bench(argc, argv, Flags::kInstruments);
  bench.register_cells(sweep(&figure8_configs, all_media()), standard_trace());
  return bench.finish([&] {
    const auto names = names_of(figure8_configs(NvmType::kSlc));
    bench.print_metric_table("Figure 8a: Bandwidth Achieved (MB/s)", names, all_media(),
                             achieved);
    bench.print_metric_table("Figure 8b: Bandwidth Remaining (MB/s)", names, all_media(),
                             remaining);

    // The two Section 4.4 observations, computed from the run.
    const ExperimentResult* ufs = bench.find("CNL-UFS", NvmType::kTlc);
    const ExperimentResult* bridge = bench.find("CNL-BRIDGE-16", NvmType::kTlc);
    const ExperimentResult* native8 = bench.find("CNL-NATIVE-8", NvmType::kTlc);
    if (ufs && bridge && native8 && bridge->achieved_mbps > 0) {
      std::printf(
          "\nBRIDGE-16 over UFS-8 (paper: 'increases only marginally'): +%.1f%%\n"
          "NATIVE-8 over BRIDGE-16 (paper: 'by a factor of 2'):          %.2fx\n",
          100.0 * (bridge->achieved_mbps / ufs->achieved_mbps - 1.0),
          native8->achieved_mbps / bridge->achieved_mbps);
    }
  });
}
