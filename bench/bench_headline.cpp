// The paper's headline numbers (Abstract + Section 7):
//   * compute-local SSD vs client-remote SSD: +108% on average,
//   * software-optimised (UFS) adds +52% on the CNL baseline,
//   * hardware-optimised adds +250% on the CNL baseline,
//   * overall relative improvement 10.3x (16x for PCM, 8x for TLC).
// This bench recomputes each claim from the simulator, prints
// paper-vs-measured, and writes the machine-readable BENCH_headline.json
// (the checked-in copy CI diffs against; see EXPERIMENTS.md).
//
// Extra flags (before any --benchmark_* ones): --quick for the CI-sized
// workload, --headline-out=FILE, --trace-out/--metrics-out/--log-level.
#include <cmath>
#include <fstream>

#include "bench_common.hpp"
#include "common/string_util.hpp"
#include "fs/presets.hpp"
#include "obs/json.hpp"

namespace {

using namespace nvmooc;
using namespace nvmooc::bench;

double get(const Bench& bench, const char* name, NvmType media) {
  const ExperimentResult* result = bench.find(name, media);
  return result ? result->achieved_mbps : 0.0;
}

/// Geometric mean of per-media improvement ratios.
double mean_ratio(const Bench& bench, const std::vector<NvmType>& media_list,
                  const char* numerator, const char* denominator) {
  double log_sum = 0.0;
  for (NvmType media : media_list) {
    log_sum += std::log(get(bench, numerator, media) / get(bench, denominator, media));
  }
  return std::exp(log_sum / static_cast<double>(media_list.size()));
}

struct Claim {
  std::string name;
  std::string paper;
  std::string measured;
  double value = 0.0;  ///< The measured ratio/gain as a bare number.
};

/// Writes nothing and returns false unless the whole grid has results.
bool write_headline_json(const Bench& bench, const std::string& path,
                         const std::vector<Claim>& claims,
                         const std::vector<ExperimentConfig>& configs) {
  if (!bench.sweep_complete(path, configs)) return false;
  obs::JsonWriter w;
  w.begin_object();
  w.field("schema_version", std::uint64_t{1});
  w.field("bench", "headline");
  w.field("workload", bench.options.quick ? "quick" : "standard");

  w.key("claims");
  w.begin_array();
  for (const Claim& claim : claims) {
    w.begin_object();
    w.field("claim", claim.name);
    w.field("paper", claim.paper);
    w.field("measured", claim.measured);
    w.field("value", claim.value);
    w.end_object();
  }
  w.end_array();

  // The full config x media grid the claims were derived from, so a
  // regression in any single cell is attributable without rerunning.
  w.key("results");
  w.begin_object();
  for (const ExperimentConfig& config : configs) {
    const ExperimentResult* r = bench.find(config.name, config.media);
    w.key(cell_name(config.name, config.media));
    w.begin_object();
    w.field("achieved_mbps", r->achieved_mbps);
    w.field("makespan_ms", static_cast<double>(r->makespan) / static_cast<double>(kMillisecond));
    w.field("channel_utilization", r->channel_utilization);
    w.field("read_latency_p99_us", r->read_latency.p99);
    w.end_object();
  }
  w.end_object();
  w.end_object();

  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for headline output\n", path.c_str());
    return false;
  }
  out << w.str() << '\n';
  return static_cast<bool>(out);
}

/// Derives the claims from the recorded sweep, prints them and writes
/// the headline JSON; false when the JSON was not written.
bool report(const Bench& bench, const std::vector<ExperimentConfig>& configs) {
  const std::vector<NvmType> nand = {NvmType::kTlc, NvmType::kMlc, NvmType::kSlc};
  const std::vector<NvmType> media = all_media();
  std::vector<Claim> claims;

  // Worst traditional CNL FS per medium == "base-line compute-local SSD".
  auto worst_cnl = [&](NvmType m) {
    double worst = 1e18;
    std::string name;
    for (const FsBehavior& fs : all_local_filesystems()) {
      const double bw = get(bench, ("CNL-" + fs.name).c_str(), m);
      if (bw < worst) {
        worst = bw;
        name = fs.name;
      }
    }
    return std::make_pair(worst, name);
  };

  {
    // Worst-CNL over ION-GPFS, per NAND type.
    const char* paper[] = {"+7%", "+78%", "+108%"};
    int i = 0;
    for (NvmType m : nand) {
      const auto [worst, name] = worst_cnl(m);
      const double gain = 100.0 * (worst / get(bench, "ION-GPFS", m) - 1.0);
      claims.push_back({format("worst CNL FS (%s) vs ION-GPFS on %s", name.c_str(),
                               std::string(to_string(m)).c_str()),
                        paper[i++], format("%+.0f%%", gain), gain});
    }
  }
  {
    // CNL baseline vs ION: average over media of the *average* CNL FS.
    double log_sum = 0;
    for (NvmType m : media) {
      double sum = 0;
      int n = 0;
      for (const FsBehavior& fs : all_local_filesystems()) {
        sum += get(bench, ("CNL-" + fs.name).c_str(), m);
        ++n;
      }
      log_sum += std::log((sum / n) / get(bench, "ION-GPFS", m));
    }
    const double gain = 100.0 * (std::exp(log_sum / media.size()) - 1.0);
    claims.push_back({"CNL SSD vs client-remote SSD (average)", "+108%",
                      format("%+.0f%%", gain), gain});
  }
  {
    // Software optimisation: UFS over the mean traditional CNL FS.
    double log_sum = 0;
    for (NvmType m : media) {
      double sum = 0;
      int n = 0;
      for (const FsBehavior& fs : all_local_filesystems()) {
        sum += get(bench, ("CNL-" + fs.name).c_str(), m);
        ++n;
      }
      log_sum += std::log(get(bench, "CNL-UFS", m) / (sum / n));
    }
    const double gain = 100.0 * (std::exp(log_sum / media.size()) - 1.0);
    claims.push_back({"UFS over CNL baseline (software)", "+52%",
                      format("%+.0f%%", gain), gain});
  }
  {
    const double hw = mean_ratio(bench, media, "CNL-NATIVE-16", "CNL-UFS");
    claims.push_back({"NATIVE-16 over CNL-UFS (hardware)", "+250%",
                      format("%+.0f%%", 100.0 * (hw - 1.0)), 100.0 * (hw - 1.0)});
  }
  {
    const double overall = mean_ratio(bench, media, "CNL-NATIVE-16", "ION-GPFS");
    claims.push_back({"overall NATIVE-16 vs ION-GPFS", "10.3x",
                      format("%.1fx", overall), overall});
    const double pcm =
        get(bench, "CNL-NATIVE-16", NvmType::kPcm) / get(bench, "ION-GPFS", NvmType::kPcm);
    claims.push_back({"PCM NATIVE-16 vs ION-GPFS", "16x", format("%.1fx", pcm), pcm});
    const double tlc =
        get(bench, "CNL-NATIVE-16", NvmType::kTlc) / get(bench, "ION-GPFS", NvmType::kTlc);
    claims.push_back({"TLC NATIVE-16 vs ION-GPFS", "8x", format("%.1fx", tlc), tlc});
  }

  std::printf("\n== Headline claims: paper vs this reproduction ==\n");
  Table table({"Claim", "Paper", "Measured"});
  for (const Claim& claim : claims) {
    table.add_row({claim.name, claim.paper, claim.measured});
  }
  table.print();

  const std::string& out = bench.options.headline_out;
  const std::string path = out.empty() ? "BENCH_headline.json" : out;
  if (!write_headline_json(bench, path, claims, configs)) return false;
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench(argc, argv, Flags::kSweep);
  const std::vector<ExperimentConfig> configs = sweep(&all_configs, all_media());
  bench.register_cells(configs, bench.trace());
  return bench.finish([&] { return report(bench, configs); });
}
