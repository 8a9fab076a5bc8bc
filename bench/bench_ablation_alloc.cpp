// Ablation — FTL allocation (striping) policy. The order in which
// consecutive mapping units walk channel/plane/die decides which PAL a
// request of a given size reaches (DESIGN.md calls this out); this bench
// sweeps policy x request size on TLC.
#include "bench_common.hpp"
#include "common/string_util.hpp"
#include "ssd/geometry.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace nvmooc;
using namespace nvmooc::bench;

const AllocationPolicy kPolicies[] = {AllocationPolicy::kChannelPlaneDie,
                                      AllocationPolicy::kChannelDiePlane,
                                      AllocationPolicy::kDieChannelPlane};
const Bytes kSizes[] = {16 * KiB, 64 * KiB, 256 * KiB, 1 * MiB};

std::string config_name(AllocationPolicy policy, Bytes size) {
  return std::string(to_string(policy)) + "@" + std::string(human_bytes(size.value()));
}

ExperimentConfig make_config(AllocationPolicy policy, Bytes request) {
  ExperimentConfig config = cnl_ufs_config(NvmType::kTlc);
  config.geometry.policy = policy;
  config.name = config_name(policy, request);
  return config;
}

void print_table(const Bench& bench) {
  std::printf("\n== Ablation: allocation policy x request size, TLC (MB/s | dominant PAL) ==\n");
  std::vector<std::string> header = {"Policy"};
  for (Bytes size : kSizes) header.emplace_back(human_bytes(size.value()));
  Table table(header);
  for (AllocationPolicy policy : kPolicies) {
    std::vector<std::string> row = {std::string(to_string(policy))};
    for (Bytes size : kSizes) {
      const ExperimentResult* result = bench.find(config_name(policy, size), NvmType::kTlc);
      if (!result) {
        row.emplace_back("-");
        continue;
      }
      int dominant = 0;
      for (int level = 1; level < 4; ++level) {
        if (result->pal_fraction[level] > result->pal_fraction[dominant]) dominant = level;
      }
      row.push_back(format("%.0f|PAL%d", result->achieved_mbps, dominant + 1));
    }
    table.add_row(row);
  }
  table.print();
  std::printf(
      "\nchannel-first policies fan small requests across channels immediately;\n"
      "die-first starves channel parallelism until requests grow large.\n");
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench(argc, argv, Flags::kInstruments);
  // Per-request-size traces: same total volume, different granularity.
  std::map<Bytes, Trace> traces;
  for (Bytes size : kSizes) traces[size] = sequential_read_trace(256 * MiB, size);
  for (AllocationPolicy policy : kPolicies) {
    for (Bytes size : kSizes) bench.register_cells({make_config(policy, size)}, traces[size]);
  }
  return bench.finish([&] { print_table(bench); });
}
