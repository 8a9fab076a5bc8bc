// Replay a trace file (or a built-in pattern) through a chosen
// configuration — the general-purpose driver for exploring the simulator.
//
// Run: ./build/examples/trace_replay --config=cnl-ufs --media=tlc
//        [--trace=FILE | --pattern=seq|rand|strided] [--size-mib=256]
//        [--faults=SCENARIO] [--audit]
#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "cluster/configs.hpp"
#include "cluster/engine.hpp"
#include "cluster/instruments.hpp"
#include "common/random.hpp"
#include "fs/presets.hpp"
#include "obs/cli.hpp"
#include "trace/scenario.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace nvmooc;

const char* kUsage =
    "usage: trace_replay [--config=NAME] [--media=slc|mlc|tlc|pcm]\n"
    "                    [--trace=FILE | --pattern=seq|rand|strided]\n"
    "                    [--size-mib=N] [--request-kib=N] [--faults=SCENARIO]\n"
    "                    [--trace-out=FILE] [--metrics-out=FILE]\n"
    "                    [--result-out=FILE] [--log-level=debug|info|warn|error|off]\n"
    "                    [--audit]  (verify conservation/causality/occupancy/FTL\n"
    "                                invariants during the replay; exit 3 on any\n"
    "                                violation)\n"
    "                    [--profile] (record the causal event graph, print the\n"
    "                                 critical-path blame report, and add the\n"
    "                                 \"profile\" section to --result-out)\n"
    "                    [--speed-report] (host telemetry: events/sec speedometer,\n"
    "                                 wall-time attribution, memory accounting;\n"
    "                                 prints the speed report and adds the \"host\"\n"
    "                                 section to --result-out)\n"
    "                    [--heartbeat-sec=N] (progress-heartbeat period for\n"
    "                                 --speed-report; 0 logs every request;\n"
    "                                 default 5)\n"
    "                    [--exemplars-out=FILE] (Perfetto-loadable waterfalls of\n"
    "                                 the K slowest requests per class — the p999\n"
    "                                 stragglers, without full --trace-out cost)\n"
    "                    [--exemplars=K] (exemplars kept per request class;\n"
    "                                 turns the reservoirs on; default 8 with\n"
    "                                 --exemplars-out)\n"
    "                    [--no-flight-recorder] (disable the always-on ring of\n"
    "                                 recent events + request ledgers that is\n"
    "                                 dumped automatically on audit violations\n"
    "                                 and fault aborts)\n"
    "                    [--flight-out=FILE] (flight-dump path; default\n"
    "                                 flight-dump.json)\n"
    "configs: ion-gpfs, cnl-jfs, cnl-btrfs, cnl-xfs, cnl-reiserfs, cnl-ext2,\n"
    "         cnl-ext3, cnl-ext4, cnl-ext4-l, cnl-ufs, cnl-bridge-16,\n"
    "         cnl-native-8, cnl-native-16\n";

bool find_config(const std::string& name, NvmType media, ExperimentConfig& out) {
  for (const ExperimentConfig& config : all_configs(media)) {
    std::string lowered = config.name;
    for (char& c : lowered) c = static_cast<char>(std::tolower(c));
    if (lowered == name) {
      out = config;
      return true;
    }
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  obs::CliOptions obs_options;
  if (!obs::parse_cli_options(argc, argv, obs_options)) return 1;
  std::string config_name = "cnl-ufs";
  std::string media_name = "tlc";
  std::string trace_path;
  std::string pattern = "seq";
  std::string fault_path;
  std::string result_out;
  constexpr std::uint64_t kMaxCount = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t size_mib = 256;
  std::uint64_t request_kib = 8192;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const auto value = [arg](const char* prefix) { return obs::flag_value(arg, prefix); };
    if (const char* v = value("--config=")) config_name = v;
    else if (const char* v = value("--media=")) media_name = v;
    else if (const char* v = value("--trace=")) trace_path = v;
    else if (const char* v = value("--pattern=")) pattern = v;
    else if (const char* v = value("--faults=")) fault_path = v;
    else if (const char* v = value("--result-out=")) result_out = v;
    else if (const char* v = value("--size-mib=")) {
      if (!obs::parse_number_flag("--size-mib", v, std::uint64_t{1}, kMaxCount / MiB.value(),
                                  size_mib)) {
        return 1;
      }
    } else if (const char* v = value("--request-kib=")) {
      if (!obs::parse_number_flag("--request-kib", v, std::uint64_t{1},
                                  kMaxCount / KiB.value(), request_kib)) {
        return 1;
      }
    } else {
      std::fprintf(stderr, "unrecognized argument '%s'\n%s", arg, kUsage);
      return 1;
    }
  }
  const Bytes size = size_mib * MiB;
  const Bytes request = request_kib * KiB;

  NvmType media;
  if (media_name == "slc") media = NvmType::kSlc;
  else if (media_name == "mlc") media = NvmType::kMlc;
  else if (media_name == "tlc") media = NvmType::kTlc;
  else if (media_name == "pcm") media = NvmType::kPcm;
  else {
    std::fputs(kUsage, stderr);
    return 1;
  }

  ExperimentConfig config;
  if (!find_config(config_name, media, config)) {
    std::fprintf(stderr, "unknown config '%s'\n%s", config_name.c_str(), kUsage);
    return 1;
  }
  // Fail on an unwritable destination *before* the replay runs, not
  // after: a typo'd directory must not cost a long simulation its output.
  if (!obs::validate_output_path(result_out, "--result-out")) return 1;

  if (!fault_path.empty()) {
    try {
      config.fault = load_fault_scenario(fault_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad fault scenario: %s\n", e.what());
      return 1;
    }
  }

  Trace trace;
  if (!trace_path.empty()) {
    try {
      trace = Trace::load(trace_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad trace: %s\n", e.what());
      return 1;
    }
  } else if (pattern == "seq") {
    trace = sequential_read_trace(size, request);
  } else if (pattern == "rand") {
    Rng rng(1);
    trace = random_read_trace(size, request, size / request, rng);
  } else if (pattern == "strided") {
    trace = strided_read_trace(size, request, request * 4, size / request);
  } else {
    std::fputs(kUsage, stderr);
    return 1;
  }

  const TraceStats stats = trace.stats();
  std::printf("trace: %zu requests, %.1f MiB, sequentiality %.2f, %.0f%% reads\n",
              trace.size(), static_cast<double>(stats.total_bytes) / static_cast<double>(MiB),
              stats.sequentiality, 100.0 * stats.read_fraction);

  InstrumentSet instruments(obs_options);
  ExperimentResult result;
  try {
    result = run_experiment(config, trace);
  } catch (const std::invalid_argument& e) {
    // A configuration the device cannot be built with (a fault target
    // outside the geometry).
    std::fprintf(stderr, "bad configuration: %s\n", e.what());
    return 1;
  }
  if (!instruments.write_exports()) return 1;
  if (const obs::LatencyObservatory* observatory = instruments.observatory()) {
    std::printf("%s", observatory->summary().c_str());
  }
  if (!result_out.empty() && !obs::write_file(result_out, "result", result.to_json())) {
    return 1;
  }

  std::printf("%s on %s:\n", result.name.c_str(), std::string(to_string(media)).c_str());
  std::printf("  throughput     %.0f MB/s over %.2f ms\n", result.achieved_mbps,
              static_cast<double>(result.makespan) / static_cast<double>(kMillisecond));
  std::printf("  utilisation    channel %.0f%%, package %.0f%%\n",
              100.0 * result.channel_utilization, 100.0 * result.package_utilization);
  std::printf("  parallelism    PAL1 %.0f%%  PAL2 %.0f%%  PAL3 %.0f%%  PAL4 %.0f%%\n",
              100.0 * result.pal_fraction[0], 100.0 * result.pal_fraction[1],
              100.0 * result.pal_fraction[2], 100.0 * result.pal_fraction[3]);
  std::printf("  phases         ");
  for (int p = 0; p < kPhaseCount; ++p) {
    std::printf("%s %.0f%%  ", to_string(static_cast<Phase>(p)),
                100.0 * result.phase_fraction[p]);
  }
  std::printf("\n  device traffic %llu requests, %llu transactions\n",
              static_cast<unsigned long long>(result.device_requests),
              static_cast<unsigned long long>(result.transactions));
  if (config.fault.enabled) {
    const ReliabilityStats& r = result.reliability;
    std::printf("  reliability    %llu retries, %llu corrected, %llu uncorrectable, "
                "%llu stuck-die, %llu stalls\n",
                static_cast<unsigned long long>(r.read_retries),
                static_cast<unsigned long long>(r.corrected_reads),
                static_cast<unsigned long long>(r.uncorrectable_reads),
                static_cast<unsigned long long>(r.die_stuck_reads),
                static_cast<unsigned long long>(r.channel_stalls));
    std::printf("  bad blocks     %llu retired (%llu on spares), %.1f MiB capacity "
                "lost, %llu pages relocated\n",
                static_cast<unsigned long long>(r.remapped_blocks),
                static_cast<unsigned long long>(r.spare_blocks_used),
                static_cast<double>(r.capacity_lost) / static_cast<double>(MiB),
                static_cast<unsigned long long>(r.remap_relocations));
    std::printf("  degraded mode  %llu requests, %.1f MiB via replica; effective "
                "%.0f MB/s\n",
                static_cast<unsigned long long>(r.degraded_requests),
                static_cast<double>(r.degraded_bytes) / static_cast<double>(MiB), r.effective_mbps);
    if (r.aborted) std::printf("  ABORTED        %s\n", r.abort_reason.c_str());
  }
  if (!result.reliability.aborted) {
    if (result.profile.enabled) std::printf("%s", result.profile.summary().c_str());
    if (result.host.enabled) std::printf("%s", result.host.summary().c_str());
  }
  if (obs_options.audit) std::printf("%s\n", result.audit.summary().c_str());
  // On a failing exit the flight recorder's postmortem lands on disk
  // next to the exit code.
  if (!instruments.conclude(result.reliability.abort_reason).passed()) return 3;
  return result.reliability.aborted ? 2 : 0;
}
