// Extension — application-observed read latency. The paper's pitch is
// NVM as "compute-local, large but slow memory": not just bandwidth but
// access latency matters for how OoC frameworks schedule. This bench
// reports the p50/p99 read latency each architecture delivers for the
// standard workload, and for small (latency-bound) random reads, and
// writes the machine-readable BENCH_latency.json (same schema as
// BENCH_headline.json; the checked-in copy is the simreport baseline).
#include <benchmark/benchmark.h>

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

void print_latency_table(const char* title, const Trace& trace,
                         std::vector<ExperimentConfig> (*configs_for)(NvmType)) {
  std::printf("\n== %s ==\n", title);
  Table table({"Configuration", "Media", "p50 (us)", "p99 (us)", "p999 (us)",
               "mean (us)"});
  for (NvmType media : latency_media()) {
    for (const ExperimentConfig& config : configs_for(media)) {
      const ExperimentResult result = run_replay(config, trace);
      board().record(result);
      table.add_row({config.name, std::string(to_string(media)),
                     format("%.0f", result.read_latency.p50),
                     format("%.0f", result.read_latency.p99),
                     format("%.0f", result.read_latency.p999),
                     format("%.0f", result.read_latency.mean)});
    }
  }
  table.print();
}

void BM_RandomReadLatency(benchmark::State& state) {
  Rng rng(11);
  const Trace trace = random_read_trace(GiB, 8 * KiB, 2000, rng);
  for (auto _ : state) {
    const ExperimentResult result = run_replay(cnl_ufs_config(NvmType::kPcm), trace);
    benchmark::DoNotOptimize(result.read_latency.p99);
    state.counters["p50_us"] = result.read_latency.p50;
    state.counters["p99_us"] = result.read_latency.p99;
  }
}
BENCHMARK(BM_RandomReadLatency)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  BenchOptions options = strip_bench_options(argc, argv);
  if (!obs::apply_log_level(options.obs.log_level)) return 1;
  benchmark::Initialize(&argc, argv);
  const std::unique_ptr<obs::ObsSession> session = obs::make_session(options.obs);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const Trace& streaming = options.quick ? quick_trace() : standard_trace();
  print_latency_table("Read latency: OoC streaming workload", streaming,
                      &latency_configs);

  Rng rng(11);
  const Trace random = random_read_trace(GiB, 8 * KiB, 2000, rng);
  print_latency_table("Read latency: 8 KiB random reads", random,
                      &random_latency_configs);

  std::printf(
      "\nCompute-local PCM approaches DRAM-class small-read latency (tens of us\n"
      "through the full stack) while the ION path pays the network + parallel-FS\n"
      "RPC on every access — the 'large but slow memory vs small but fast disk'\n"
      "framing of the paper's introduction.\n");

  const std::string results_path =
      options.results_out.empty() ? "BENCH_latency.json" : options.results_out;
  if (!write_results_json(results_path, "latency",
                          options.quick ? "quick" : "standard", latency_media(),
                          &all_latency_configs,
                          [](obs::JsonWriter& w, const ExperimentResult& r) {
                            w.field("read_latency_p50_us", r.read_latency.p50);
                            w.field("read_latency_p99_us", r.read_latency.p99);
                            w.field("read_latency_p999_us", r.read_latency.p999);
                            w.field("read_latency_mean_us", r.read_latency.mean);
                            w.field("makespan_ms",
                                    static_cast<double>(r.makespan) /
                                        static_cast<double>(kMillisecond));
                            // Per-stage tail decomposition: where the
                            // p999 of each stage lives (see
                            // obs/latency.hpp for the stage mapping).
                            for (int s = 0; s < obs::kLatencyStageCount; ++s) {
                              const auto stage = static_cast<obs::LatencyStage>(s);
                              const obs::HistogramSummary& h =
                                  r.latency.stage[static_cast<std::size_t>(s)];
                              const std::string key = obs::latency_stage_key(stage);
                              w.field(key + "_p50_us", h.p50);
                              w.field(key + "_p99_us", h.p99);
                              w.field(key + "_p999_us", h.p999);
                            }
                          })) {
    return 1;
  }
  if (!obs::write_outputs(session.get(), options.obs)) return 1;
  return audit_exit_status();
}
