// Extension — application-observed read latency. The paper's pitch is
// NVM as "compute-local, large but slow memory": not just bandwidth but
// access latency matters for how OoC frameworks schedule. This bench
// reports the p50/p99 read latency each architecture delivers for the
// standard workload, and for small (latency-bound) random reads, and
// writes the machine-readable BENCH_latency.json (same schema as
// BENCH_headline.json; the checked-in copy is the simreport baseline).
#include "bench_common.hpp"
#include "common/random.hpp"
#include "fs/presets.hpp"
#include "common/string_util.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace nvmooc;
using namespace nvmooc::bench;

std::vector<ExperimentConfig> latency_configs(NvmType media) {
  return {ion_gpfs_config(media), cnl_fs_config(ext4_behavior(), media),
          cnl_ufs_config(media), cnl_native16_config(media)};
}

/// The random-read sweep rides in the same results JSON as the streaming
/// sweep, so its rows get a distinguishing name suffix (the name is pure
/// identity — it never influences the simulation).
std::vector<ExperimentConfig> random_latency_configs(NvmType media) {
  std::vector<ExperimentConfig> configs = latency_configs(media);
  for (ExperimentConfig& config : configs) config.name += "-RAND8K";
  return configs;
}

std::vector<ExperimentConfig> all_latency_configs(NvmType media) {
  std::vector<ExperimentConfig> configs = latency_configs(media);
  for (const ExperimentConfig& config : random_latency_configs(media)) {
    configs.push_back(config);
  }
  return configs;
}

std::vector<NvmType> latency_media() { return {NvmType::kTlc, NvmType::kPcm}; }

void print_latency_table(const Bench& bench, const char* title,
                         const std::vector<ExperimentConfig>& configs) {
  std::printf("\n== %s ==\n", title);
  Table table({"Configuration", "Media", "p50 (us)", "p99 (us)", "p999 (us)",
               "mean (us)"});
  for (const ExperimentConfig& config : configs) {
    const ExperimentResult* result = bench.find(config.name, config.media);
    if (result == nullptr) continue;
    table.add_row({config.name, std::string(to_string(config.media)),
                   format("%.0f", result->read_latency.p50),
                   format("%.0f", result->read_latency.p99),
                   format("%.0f", result->read_latency.p999),
                   format("%.0f", result->read_latency.mean)});
  }
  table.print();
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench(argc, argv, Flags::kSweep);
  const std::vector<ExperimentConfig> streaming = sweep(&latency_configs, latency_media());
  const std::vector<ExperimentConfig> random = sweep(&random_latency_configs, latency_media());
  Rng rng(11);
  const Trace random_reads = random_read_trace(GiB, 8 * KiB, 2000, rng);
  bench.register_cells(streaming, bench.trace());
  bench.register_cells(random, random_reads);
  return bench.finish([&] {
    print_latency_table(bench, "Read latency: OoC streaming workload", streaming);
    print_latency_table(bench, "Read latency: 8 KiB random reads", random);

    std::printf(
        "\nCompute-local PCM approaches DRAM-class small-read latency (tens of us\n"
        "through the full stack) while the ION path pays the network + parallel-FS\n"
        "RPC on every access — the 'large but slow memory vs small but fast disk'\n"
        "framing of the paper's introduction.\n");

    const std::string& out = bench.options.results_out;
    return bench.write_results_json(
        out.empty() ? "BENCH_latency.json" : out, "latency",
        sweep(&all_latency_configs, latency_media()),
        [](obs::JsonWriter& w, const ExperimentResult& r) {
          w.field("read_latency_p50_us", r.read_latency.p50);
          w.field("read_latency_p99_us", r.read_latency.p99);
          w.field("read_latency_p999_us", r.read_latency.p999);
          w.field("read_latency_mean_us", r.read_latency.mean);
          w.field("makespan_ms",
                  static_cast<double>(r.makespan) / static_cast<double>(kMillisecond));
          // Per-stage tail decomposition: where the p999 of each stage
          // lives (see obs/latency.hpp for the stage mapping).
          for (int s = 0; s < obs::kLatencyStageCount; ++s) {
            const auto stage = static_cast<obs::LatencyStage>(s);
            const obs::HistogramSummary& h = r.latency.stage[static_cast<std::size_t>(s)];
            const std::string key = obs::latency_stage_key(stage);
            w.field(key + "_p50_us", h.p50);
            w.field(key + "_p99_us", h.p99);
            w.field(key + "_p999_us", h.p999);
          }
        });
  });
}
