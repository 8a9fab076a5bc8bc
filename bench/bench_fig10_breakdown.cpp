// Figure 10 — execution-time breakdown (six phases) and parallelism
// decomposition (PAL1-4) for TLC (10a/10b) and PCM (10c/10d), across all
// thirteen configurations.
#include "bench_common.hpp"

namespace {

using nvmooc::ExperimentResult;
using nvmooc::NvmType;
using nvmooc::Phase;
using nvmooc::Table;

void print_breakdown(const std::string& title, NvmType media) {
  std::printf("\n== %s ==\n", title.c_str());
  std::vector<std::string> header = {"Configuration"};
  for (int p = 0; p < nvmooc::kPhaseCount; ++p) {
    header.emplace_back(nvmooc::to_string(static_cast<Phase>(p)));
  }
  Table table(header);
  for (const auto& config : nvmooc::all_configs(media)) {
    const ExperimentResult* r = nvmooc::bench::board().find(config.name, media);
    if (!r) continue;
    std::vector<double> row;
    for (int p = 0; p < nvmooc::kPhaseCount; ++p) row.push_back(100.0 * r->phase_fraction[p]);
    table.add_row_numeric(config.name, row, 1);
  }
  table.print();
}

void print_parallelism(const std::string& title, NvmType media) {
  std::printf("\n== %s ==\n", title.c_str());
  Table table({"Configuration", "PAL1", "PAL2", "PAL3", "PAL4"});
  for (const auto& config : nvmooc::all_configs(media)) {
    const ExperimentResult* r = nvmooc::bench::board().find(config.name, media);
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

  BenchOptions options = strip_bench_options(argc, argv);
  if (!obs::apply_log_level(options.obs.log_level)) return 1;
  benchmark::Initialize(&argc, argv);
  const std::unique_ptr<obs::ObsSession> session = obs::make_session(options.obs);
  const Trace& trace = options.quick ? quick_trace() : standard_trace();
  register_sweep(&all_configs, {NvmType::kTlc, NvmType::kPcm}, trace);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  print_breakdown("Figure 10a: TLC Execution Breakdown (%)", NvmType::kTlc);
  print_parallelism("Figure 10b: TLC Parallelism Decomposition (%)", NvmType::kTlc);
  print_breakdown("Figure 10c: PCM Execution Breakdown (%)", NvmType::kPcm);
  print_parallelism("Figure 10d: PCM Parallelism Decomposition (%)", NvmType::kPcm);

  std::printf(
      "\nPaper shape checks: ION rows dominated by non-overlapped DMA; traditional FS\n"
      "rows by bus activity; NATIVE rows by cell activation (TLC). ION-GPFS TLC sits\n"
      "at PAL3 while UFS rows reach PAL4; PCM is PAL4 nearly everywhere.\n");

  const std::string results_path =
      options.results_out.empty() ? "BENCH_fig10.json" : options.results_out;
  if (!write_results_json(results_path, "fig10",
                          options.quick ? "quick" : "standard",
                          {NvmType::kTlc, NvmType::kPcm}, &all_configs,
                          [](obs::JsonWriter& w, const ExperimentResult& r) {
                            w.key("phase_fraction");
                            w.begin_object();
                            for (int p = 0; p < kPhaseCount; ++p) {
                              w.field(phase_key(static_cast<Phase>(p)),
                                      r.phase_fraction[p]);
                            }
                            w.end_object();
                            w.key("pal_fraction");
                            w.begin_object();
                            for (int level = 0; level < 4; ++level) {
                              w.field(to_string(static_cast<ParallelismLevel>(level)),
                                      r.pal_fraction[level]);
                            }
                            w.end_object();
                          })) {
    return 1;
  }
  if (!obs::write_outputs(session.get(), options.obs)) return 1;
  return audit_exit_status();
}
