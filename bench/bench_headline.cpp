// The paper's evaluation in one sweep. Every Table 2 configuration on
// every medium replays once on the OoC trace (Figures 7-10 and the
// Section 7 claims), and four architectures replay once more on 8 KiB
// random reads (the read-latency extension). Every table prints from
// those recorded results:
//   * Table 2, Figure 7a/7b, Figure 8a/8b and the two Section 4.4 ratios,
//     Figure 9a/9b, Figure 10a-d;
//   * read latency (streaming and random), energy per MiB on MLC;
//   * the headline claims, paper vs measured (Abstract + Section 7:
//     compute-local vs client-remote SSD +108% on average, UFS +52% and
//     hardware +250% on the CNL baseline, 10.3x overall, 16x PCM, 8x TLC);
//   * under --speed-report, the host's simulation speed per cell.
// A complete sweep writes BENCH_headline.json, BENCH_fig10.json and
// BENCH_latency.json, and under --speed-report BENCH_simspeed.json, into
// --out-dir (the checked-in copies CI diffs against; see EXPERIMENTS.md).
//
// Flags: --quick for the CI-sized workload, --out-dir=DIR (default .),
// the instrument flags, --filter=REGEX and --list.
#include <cmath>

#include "bench_common.hpp"
#include "cluster/energy.hpp"
#include "common/random.hpp"
#include "common/string_util.hpp"
#include "fs/presets.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace nvmooc;
using namespace nvmooc::bench;

double get(const Bench& bench, const char* name, NvmType media) {
  const ExperimentResult* result = bench.find(name, media);
  return result ? result->achieved_mbps : 0.0;
}

double ms(Time t) { return static_cast<double>(t) / static_cast<double>(kMillisecond); }

/// The four architectures the paper's speedup story runs through: the
/// client-remote baseline, a traditional CNL file system, the
/// software-optimised stack and the hardware-optimised end point.
std::vector<ExperimentConfig> story_configs(NvmType media) {
  return {ion_gpfs_config(media), cnl_fs_config(ext4_behavior(), media), cnl_ufs_config(media),
          cnl_native16_config(media)};
}

/// The random-read rows ride in BENCH_latency.json next to the streaming
/// ones, so their names carry a suffix (a name never influences a replay).
std::vector<ExperimentConfig> random_read_configs(NvmType media) {
  std::vector<ExperimentConfig> configs = story_configs(media);
  for (ExperimentConfig& config : configs) config.name += "-RAND8K";
  return configs;
}

std::vector<ExperimentConfig> latency_configs(NvmType media) {
  std::vector<ExperimentConfig> configs = story_configs(media);
  for (ExperimentConfig& config : random_read_configs(media)) configs.push_back(std::move(config));
  return configs;
}

const std::vector<NvmType> kLatencyMedia = {NvmType::kTlc, NvmType::kPcm};

/// Geometric mean of per-media improvement ratios.
double mean_ratio(const Bench& bench, const std::vector<NvmType>& media_list,
                  const char* numerator, const char* denominator) {
  double log_sum = 0.0;
  for (NvmType media : media_list) {
    log_sum += std::log(get(bench, numerator, media) / get(bench, denominator, media));
  }
  return std::exp(log_sum / static_cast<double>(media_list.size()));
}

double achieved(const ExperimentResult& r) { return r.achieved_mbps; }
double remaining(const ExperimentResult& r) { return r.remaining_mbps; }
double channel_pct(const ExperimentResult& r) { return 100.0 * r.channel_utilization; }
double package_pct(const ExperimentResult& r) { return 100.0 * r.package_utilization; }

void print_table2() {
  std::printf("\n== Table 2: evaluated configurations ==\n");
  Table table({"Location-FileSystem", "Controller", "Bus", "NVM bus", "Lanes"});
  for (const ExperimentConfig& config : all_configs(NvmType::kSlc)) {
    table.add_row({config.name,
                   config.host_link.bridge_latency > Time{} ? "Bridged" : "Native",
                   config.host_link.gigatransfers_per_sec > 6 ? "PCIe 3.0" : "PCIe 2.0",
                   config.nvm_bus.describe(),
                   std::to_string(config.host_link.lanes)});
  }
  table.print();
}

void print_figure7(const Bench& bench) {
  const auto names = names_of(figure7_configs(NvmType::kSlc));
  bench.print_metric_table("Figure 7a: Bandwidth Achieved (MB/s)", names, all_media(), achieved);
  bench.print_metric_table("Figure 7b: Bandwidth Remaining (MB/s)", names, all_media(),
                           remaining);
  std::printf(
      "\nPaper shape checks: ION-GPFS network-bound and flat across NAND; EXT2 the\n"
      "worst CNL FS; BTRFS the best untuned FS; EXT4-L ~1 GB/s over EXT4; UFS at the\n"
      "PCIe 2.0 x8 ceiling; PCM compresses the FS spread to the interface limit.\n");
}

void print_figure8(const Bench& bench) {
  const auto names = names_of(figure8_configs(NvmType::kSlc));
  bench.print_metric_table("Figure 8a: Bandwidth Achieved (MB/s)", names, all_media(), achieved);
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
}

void print_figure9(const Bench& bench) {
  const auto names = names_of(all_configs(NvmType::kSlc));
  bench.print_metric_table("Figure 9a: Channel-Level Utilization (%)", names, all_media(),
                           channel_pct);
  bench.print_metric_table("Figure 9b: Package-Level Utilization (%)", names, all_media(),
                           package_pct);
  std::printf(
      "\nPaper shape checks: ION-GPFS keeps channels hot (striping touches every\n"
      "channel) while package utilisation stays low; UFS-based configurations reach\n"
      "near-full channel utilisation, and the NATIVE variants drive packages hard.\n");
}

/// One Figure 10 table: a row of `columns` percentages per configuration.
void print_fractions(const Bench& bench, const std::string& title, NvmType media,
                     const std::vector<std::string>& columns,
                     std::vector<double> (*fractions)(const ExperimentResult&)) {
  std::printf("\n== %s ==\n", title.c_str());
  std::vector<std::string> header = {"Configuration"};
  header.insert(header.end(), columns.begin(), columns.end());
  Table table(header);
  for (const ExperimentConfig& config : all_configs(media)) {
    const ExperimentResult* r = bench.find(config.name, media);
    if (!r) continue;
    std::vector<double> row;
    for (double fraction : fractions(*r)) row.push_back(100.0 * fraction);
    table.add_row_numeric(config.name, row, 1);
  }
  table.print();
}

void print_figure10(const Bench& bench) {
  std::vector<std::string> phases;
  for (int p = 0; p < kPhaseCount; ++p) phases.emplace_back(to_string(static_cast<Phase>(p)));
  const std::vector<std::string> levels = {"PAL1", "PAL2", "PAL3", "PAL4"};
  const auto phase_fractions = [](const ExperimentResult& r) {
    return std::vector<double>(r.phase_fraction.begin(), r.phase_fraction.end());
  };
  const auto pal_fractions = [](const ExperimentResult& r) {
    return std::vector<double>(r.pal_fraction.begin(), r.pal_fraction.end());
  };
  print_fractions(bench, "Figure 10a: TLC Execution Breakdown (%)", NvmType::kTlc, phases,
                  phase_fractions);
  print_fractions(bench, "Figure 10b: TLC Parallelism Decomposition (%)", NvmType::kTlc, levels,
                  pal_fractions);
  print_fractions(bench, "Figure 10c: PCM Execution Breakdown (%)", NvmType::kPcm, phases,
                  phase_fractions);
  print_fractions(bench, "Figure 10d: PCM Parallelism Decomposition (%)", NvmType::kPcm, levels,
                  pal_fractions);
  std::printf(
      "\nPaper shape checks: ION rows dominated by non-overlapped DMA; traditional FS\n"
      "rows by bus activity; NATIVE rows by cell activation (TLC). ION-GPFS TLC sits\n"
      "at PAL3 while UFS rows reach PAL4; PCM is PAL4 nearly everywhere.\n");
}

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

/// Application-observed read latency: the paper pitches NVM as
/// "compute-local, large but slow memory", so access latency matters for
/// how OoC frameworks schedule, not just bandwidth.
void print_latency(const Bench& bench) {
  print_latency_table(bench, "Read latency: OoC streaming workload",
                      sweep(&story_configs, kLatencyMedia));
  print_latency_table(bench, "Read latency: 8 KiB random reads",
                      sweep(&random_read_configs, kLatencyMedia));
  std::printf(
      "\nCompute-local PCM approaches DRAM-class small-read latency (tens of us\n"
      "through the full stack) while the ION path pays the network + parallel-FS\n"
      "RPC on every access — the 'large but slow memory vs small but fast disk'\n"
      "framing of the paper's introduction.\n");
}

/// Energy per byte of OoC work. Section 1 argues that the in-DRAM
/// approach carries "high energy use" of memory and network "over time";
/// the energy model (cluster/energy.hpp) turns each replay into joules
/// per MiB, next to the distributed-DRAM alternative holding the same
/// dataset resident for the same duration.
void print_energy(const Bench& bench) {
  std::printf("\n== Extension: energy per unit of OoC work (MLC, %s workload) ==\n",
              bench.options.quick ? "quick" : "standard");
  Table table({"Configuration", "MB/s", "cell J", "bus J", "link+net J", "idle J",
               "total J", "mJ/MiB"});
  for (const ExperimentConfig& config : story_configs(NvmType::kMlc)) {
    const ExperimentResult* result = bench.find(config.name, config.media);
    if (result == nullptr) continue;
    const EnergyReport energy =
        estimate_energy(*result, config.location == StorageLocation::kIonLocal);
    table.add_row({config.name, format("%.0f", result->achieved_mbps),
                   format("%.2f", energy.cell_joules), format("%.2f", energy.bus_joules),
                   format("%.3f", energy.link_joules + energy.network_joules),
                   format("%.2f", energy.idle_joules), format("%.2f", energy.total_joules),
                   format("%.1f", energy.mj_per_mib)});
  }
  table.print();

  // The distributed-DRAM alternative: hold the dataset resident in
  // cluster memory for as long as the slowest replay took, and ship the
  // same traffic over the fabric.
  const ExperimentResult* ion = bench.find("ION-GPFS", NvmType::kMlc);
  if (ion == nullptr) return;
  const double dram = in_memory_alternative_joules(
      bench.trace().extent(), bench.trace().stats().total_bytes, ion->makespan);
  std::printf(
      "\nDistributed-DRAM alternative (dataset resident for the ION run's %.0f ms):\n"
      "%.2f J for refresh+network alone — before any compute-node DRAM is counted.\n"
      "Idle-floor dominance in the slow configurations is the paper's energy story:\n"
      "finishing the I/O sooner on local NVM saves energy quadratically.\n",
      ms(ion->makespan), dram);
}

void print_speed(const Bench& bench, const std::vector<ExperimentConfig>& grid) {
  std::printf("\n== Simulation speed (host events/sec) ==\n");
  Table table({"Configuration", "events/s", "sim-s per wall-s", "wall ms"});
  for (const ExperimentConfig& config : grid) {
    const ExperimentResult* r = bench.find(config.name, config.media);
    if (r == nullptr || !r->host.enabled) continue;
    table.add_row({cell_name(config.name, config.media),
                   format("%.0f", r->host.events_per_sec),
                   format("%.3g", r->host.sim_time_per_wall_second),
                   format("%.1f", r->host.wall_seconds * 1e3)});
  }
  table.print();
}

struct Claim {
  std::string name;
  std::string paper;
  std::string measured;
  double value = 0.0;  ///< The measured ratio/gain as a bare number.
};

/// Derives the headline claims from the recorded sweep.
std::vector<Claim> headline_claims(const Bench& bench) {
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
  return claims;
}

/// BENCH_headline.json: the claims, then the full config x media grid
/// they were derived from, so a regression in any single cell is
/// attributable without rerunning.
bool write_headline(const Bench& bench, const std::vector<ExperimentConfig>& grid,
                    const std::vector<Claim>& claims) {
  return bench.write_results_json(
      "headline", grid,
      [](obs::JsonWriter& w, const ExperimentResult& r) {
        w.field("achieved_mbps", r.achieved_mbps);
        w.field("makespan_ms", ms(r.makespan));
        w.field("channel_utilization", r.channel_utilization);
        w.field("read_latency_p99_us", r.read_latency.p99);
      },
      [&claims](obs::JsonWriter& w) {
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
      });
}

bool write_fig10(const Bench& bench) {
  return bench.write_results_json(
      "fig10", sweep(&all_configs, {NvmType::kTlc, NvmType::kPcm}),
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
}

bool write_latency(const Bench& bench) {
  return bench.write_results_json(
      "latency", sweep(&latency_configs, kLatencyMedia),
      [](obs::JsonWriter& w, const ExperimentResult& r) {
        w.field("read_latency_p50_us", r.read_latency.p50);
        w.field("read_latency_p99_us", r.read_latency.p99);
        w.field("read_latency_p999_us", r.read_latency.p999);
        w.field("read_latency_mean_us", r.read_latency.mean);
        w.field("makespan_ms", ms(r.makespan));
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
}

/// The speed ledger: one row per grid cell. CI gates the deterministic
/// fields exactly (the same replay must process the same events and hold
/// the same timeline memory on any machine) and the wall-clock fields
/// with --ratio only, since absolute host speed varies by machine.
bool write_simspeed(const Bench& bench, const std::vector<ExperimentConfig>& grid) {
  return bench.write_results_json(
      "simspeed", grid, [](obs::JsonWriter& w, const ExperimentResult& r) {
        w.field("events_total", r.host.events_total);
        w.field("device_requests",
                r.host.events[static_cast<int>(obs::HostEvent::kDeviceRequest)]);
        w.field("timeline_reservations",
                r.host.events[static_cast<int>(obs::HostEvent::kTimelineReservation)]);
        w.field("makespan_ms", ms(r.makespan));
        // This replay's own high-water mark: restarted at replay begin.
        w.field("timeline_peak_live_kib",
                static_cast<double>(r.host.timeline_alloc.peak_live_bytes) / 1024.0);
        w.field("wall_ms", r.host.wall_seconds * 1e3);
        w.field("events_per_sec", r.host.events_per_sec);
        w.field("sim_time_per_wall_second", r.host.sim_time_per_wall_second);
      });
}

/// Prints every table, then writes every BENCH file; false when one was
/// not written.
bool report(const Bench& bench, const std::vector<ExperimentConfig>& grid) {
  print_table2();
  print_figure7(bench);
  print_figure8(bench);
  print_figure9(bench);
  print_figure10(bench);
  print_latency(bench);
  print_energy(bench);
  const bool speed = bench.options.obs.speed_report;
  if (speed) print_speed(bench, grid);

  const std::vector<Claim> claims = headline_claims(bench);
  std::printf("\n== Headline claims: paper vs this reproduction ==\n");
  Table table({"Claim", "Paper", "Measured"});
  for (const Claim& claim : claims) {
    table.add_row({claim.name, claim.paper, claim.measured});
  }
  table.print();

  bool ok = write_headline(bench, grid, claims);
  ok = write_fig10(bench) && ok;
  ok = write_latency(bench) && ok;
  if (speed) ok = write_simspeed(bench, grid) && ok;
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench(argc, argv, Flags::kSweep);
  const std::vector<ExperimentConfig> grid = sweep(&all_configs, all_media());
  Rng rng(11);
  const Trace random_reads = random_read_trace(GiB, 8 * KiB, 2000, rng);
  bench.register_cells(grid, bench.trace());
  bench.register_cells(sweep(&random_read_configs, kLatencyMedia), random_reads);
  return bench.finish([&] { return report(bench, grid); });
}
