// Simulation speed benchmark: how fast the *host* chews through a replay
// (events/sec, simulated seconds per wall second), measured with the
// --speed-report host-telemetry subsystem on the headline configurations.
// Writes BENCH_simspeed.json — the checked-in copy is what CI's
// `simreport diff` compares regenerated runs against: deterministic
// fields (event counts, makespans) with exact tolerances, wall-clock
// fields (rates, RSS) with --ratio tolerances, since absolute host speed
// varies by machine and is deliberately not gated.
//
// Extra flags (before any --benchmark_* ones): --quick for the CI-sized
// workload, --results-out=FILE, --heartbeat-sec=N (0 logs a heartbeat
// per request — CI uses this to capture a non-empty heartbeat log),
// --audit (exit 3 on any invariant violation).
#include "bench_common.hpp"
#include "common/string_util.hpp"
#include "fs/presets.hpp"

namespace {

using namespace nvmooc;
using namespace nvmooc::bench;

/// The headline subset: client-remote baseline, best traditional CNL FS,
/// the software-optimised stack, and the hardware-optimised end point —
/// the four architectures the paper's speedup story runs through. Two
/// media (TLC and PCM) bracket the slow/fast device extremes, which is
/// what moves host events-per-wall-second.
std::vector<ExperimentConfig> speed_configs(NvmType media) {
  std::vector<ExperimentConfig> picked;
  for (const ExperimentConfig& config : all_configs(media)) {
    if (config.name == "ION-GPFS" || config.name == "CNL-EXT4" ||
        config.name == "CNL-UFS" || config.name == "CNL-NATIVE-16") {
      picked.push_back(config);
    }
  }
  return picked;
}

std::vector<NvmType> speed_media() { return {NvmType::kTlc, NvmType::kPcm}; }

}  // namespace

int main(int argc, char** argv) {
  Bench bench(argc, argv, Flags::kSweep);
  // This bench *is* the speed report: the host profiler rides along with
  // every replay even when --speed-report was not passed.
  bench.options.obs.speed_report = true;
  const std::vector<ExperimentConfig> configs = sweep(&speed_configs, speed_media());
  bench.register_cells(configs, bench.trace());
  return bench.finish([&] {
    std::printf("\n== Simulation speed (host events/sec) ==\n");
    Table table({"Configuration", "events/s", "sim-s per wall-s", "wall ms"});
    for (const ExperimentConfig& config : configs) {
      const ExperimentResult* r = bench.find(config.name, config.media);
      if (r == nullptr || !r->host.enabled) continue;
      table.add_row({cell_name(config.name, config.media),
                     format("%.0f", r->host.events_per_sec),
                     format("%.3g", r->host.sim_time_per_wall_second),
                     format("%.1f", r->host.wall_seconds * 1e3)});
    }
    table.print();

    const std::string& out = bench.options.results_out;
    return bench.write_results_json(
        out.empty() ? "BENCH_simspeed.json" : out, "simspeed", configs,
        [](obs::JsonWriter& w, const ExperimentResult& r) {
          // Deterministic fields first (CI gates these exactly): the same
          // replay must process the same events no matter the machine.
          w.field("events_total", r.host.events_total);
          w.field("device_requests",
                  r.host.events[static_cast<int>(obs::HostEvent::kDeviceRequest)]);
          w.field("timeline_reservations",
                  r.host.events[static_cast<int>(obs::HostEvent::kTimelineReservation)]);
          w.field("makespan_ms",
                  static_cast<double>(r.makespan) / static_cast<double>(kMillisecond));
          // Wall-clock fields (CI gates these with --ratio only).
          w.field("wall_ms", r.host.wall_seconds * 1e3);
          w.field("events_per_sec", r.host.events_per_sec);
          w.field("sim_time_per_wall_second", r.host.sim_time_per_wall_second);
          w.field("peak_rss_mib",
                  static_cast<double>(r.host.peak_rss_bytes) / (1024.0 * 1024.0));
        });
  });
}
