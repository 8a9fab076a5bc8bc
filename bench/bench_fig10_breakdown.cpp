// Figure 10 — execution-time breakdown (six phases) and parallelism
// decomposition (PAL1-4) for TLC (10a/10b) and PCM (10c/10d), across all
// thirteen configurations.
#include "bench_common.hpp"

namespace {

using nvmooc::ExperimentResult;
using nvmooc::NvmType;
using nvmooc::Phase;
using nvmooc::Table;

void print_breakdown(const nvmooc::bench::Bench& bench, const std::string& title,
                     NvmType media) {
  std::printf("\n== %s ==\n", title.c_str());
  std::vector<std::string> header = {"Configuration"};
  for (int p = 0; p < nvmooc::kPhaseCount; ++p) {
    header.emplace_back(nvmooc::to_string(static_cast<Phase>(p)));
  }
  Table table(header);
  for (const auto& config : nvmooc::all_configs(media)) {
    const ExperimentResult* r = bench.find(config.name, media);
    if (!r) continue;
    std::vector<double> row;
    for (int p = 0; p < nvmooc::kPhaseCount; ++p) row.push_back(100.0 * r->phase_fraction[p]);
    table.add_row_numeric(config.name, row, 1);
  }
  table.print();
}

void print_parallelism(const nvmooc::bench::Bench& bench, const std::string& title,
                       NvmType media) {
  std::printf("\n== %s ==\n", title.c_str());
  Table table({"Configuration", "PAL1", "PAL2", "PAL3", "PAL4"});
  for (const auto& config : nvmooc::all_configs(media)) {
    const ExperimentResult* r = bench.find(config.name, media);
    if (!r) continue;
    std::vector<double> row;
    for (int level = 0; level < 4; ++level) row.push_back(100.0 * r->pal_fraction[level]);
    table.add_row_numeric(config.name, row, 1);
  }
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nvmooc;
  using namespace nvmooc::bench;

  Bench bench(argc, argv, Flags::kSweep);
  const std::vector<ExperimentConfig> configs =
      sweep(&all_configs, {NvmType::kTlc, NvmType::kPcm});
  bench.register_cells(configs, bench.trace());
  return bench.finish([&] {
    print_breakdown(bench, "Figure 10a: TLC Execution Breakdown (%)", NvmType::kTlc);
    print_parallelism(bench, "Figure 10b: TLC Parallelism Decomposition (%)", NvmType::kTlc);
    print_breakdown(bench, "Figure 10c: PCM Execution Breakdown (%)", NvmType::kPcm);
    print_parallelism(bench, "Figure 10d: PCM Parallelism Decomposition (%)", NvmType::kPcm);

    std::printf(
        "\nPaper shape checks: ION rows dominated by non-overlapped DMA; traditional FS\n"
        "rows by bus activity; NATIVE rows by cell activation (TLC). ION-GPFS TLC sits\n"
        "at PAL3 while UFS rows reach PAL4; PCM is PAL4 nearly everywhere.\n");

    const std::string& out = bench.options.results_out;
    return bench.write_results_json(
        out.empty() ? "BENCH_fig10.json" : out, "fig10", configs,
        [](obs::JsonWriter& w, const ExperimentResult& r) {
          w.key("phase_fraction");
          w.begin_object();
          for (int p = 0; p < kPhaseCount; ++p) {
            w.field(phase_key(static_cast<Phase>(p)), r.phase_fraction[p]);
          }
          w.end_object();
          w.key("pal_fraction");
          w.begin_object();
          for (int level = 0; level < 4; ++level) {
            w.field(to_string(static_cast<ParallelismLevel>(level)), r.pal_fraction[level]);
          }
          w.end_object();
        });
  });
}
