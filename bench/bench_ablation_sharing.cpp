// Ablation — compute nodes per ION. Carver dedicates 40 CNs and 10
// ION-attached SSDs to OoC work (Figure 3): roughly four OoC clients
// contend for each ION SSD and its network port. This bench sweeps that
// ratio and contrasts it with compute-local NVM, where every added node
// brings its own device — the architectural heart of the paper's
// argument.
#include <map>
#include <utility>

#include "bench_common.hpp"
#include "common/string_util.hpp"

namespace {

using namespace nvmooc;
using namespace nvmooc::bench;

const unsigned kClientCounts[] = {1, 2, 4, 8};

}  // namespace

int main(int argc, char** argv) {
  Bench bench(argc, argv, Flags::kInstruments);
  const ExperimentConfig ion = ion_gpfs_config(NvmType::kMlc);
  const ExperimentConfig cnl = cnl_ufs_config(NvmType::kMlc);
  std::map<std::pair<std::string, unsigned>, MultiClientResult> results;
  for (unsigned clients : kClientCounts) {
    for (const ExperimentConfig* config : {&ion, &cnl}) {
      bench.add(cell_name(config->name, config->media) + "/x" + std::to_string(clients),
                [&bench, &results, config, clients] {
                  results[{config->name, clients}] =
                      bench.replay(*config, standard_trace(), clients);
                });
    }
  }
  return bench.finish([&] {
    std::printf("\n== Ablation: OoC clients per ION (MLC, per-client MB/s) ==\n");
    Table table({"Clients", "ION-GPFS per-client", "ION aggregate", "CNL-UFS per-client",
                 "CNL aggregate"});
    for (unsigned clients : kClientCounts) {
      const auto shared = results.find({ion.name, clients});
      const auto local = results.find({cnl.name, clients});
      if (shared == results.end() || local == results.end()) continue;
      table.add_row({std::to_string(clients), format("%.0f", shared->second.per_client_mbps),
                     format("%.0f", shared->second.aggregate_mbps),
                     format("%.0f", local->second.per_client_mbps),
                     format("%.0f", local->second.aggregate_mbps)});
    }
    table.print();
    std::printf(
        "\nShared ION bandwidth divides across clients (the Carver 4:1 ratio lands at\n"
        "a quarter of the single-client number); compute-local NVM scales linearly\n"
        "because every node brings its own device — Section 3.1's case for migration.\n");
  });
}
