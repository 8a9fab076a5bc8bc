// Ablation — compute nodes per ION. Carver dedicates 40 CNs and 10
// ION-attached SSDs to OoC work (Figure 3): roughly four OoC clients
// contend for each ION SSD and its network port. This bench sweeps that
// ratio and contrasts it with compute-local NVM, where every added node
// brings its own device — the architectural heart of the paper's
// argument.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "cluster/engine.hpp"
#include "common/string_util.hpp"

namespace {

using namespace nvmooc;
using namespace nvmooc::bench;

const unsigned kClientCounts[] = {1, 2, 4, 8};

void BM_SharedIon(benchmark::State& state) {
  const unsigned clients = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    const MultiClientResult r =
        run_multi_client(ion_gpfs_config(NvmType::kMlc), standard_trace(), clients);
    benchmark::DoNotOptimize(r.makespan);
    state.counters["per_client_MBps"] = r.per_client_mbps;
    state.counters["aggregate_MBps"] = r.aggregate_mbps;
  }
}
BENCHMARK(BM_SharedIon)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("\n== Ablation: OoC clients per ION (MLC, per-client MB/s) ==\n");
  Table table({"Clients", "ION-GPFS per-client", "ION aggregate", "CNL-UFS per-client",
               "CNL aggregate"});
  for (unsigned clients : kClientCounts) {
    const MultiClientResult ion =
        run_multi_client(ion_gpfs_config(NvmType::kMlc), standard_trace(), clients);
    const MultiClientResult cnl =
        run_multi_client(cnl_ufs_config(NvmType::kMlc), standard_trace(), clients);
    table.add_row({std::to_string(clients), format("%.0f", ion.per_client_mbps),
                   format("%.0f", ion.aggregate_mbps), format("%.0f", cnl.per_client_mbps),
                   format("%.0f", cnl.aggregate_mbps)});
  }
  table.print();
  std::printf(
      "\nShared ION bandwidth divides across clients (the Carver 4:1 ratio lands at\n"
      "a quarter of the single-client number); compute-local NVM scales linearly\n"
      "because every node brings its own device — Section 3.1's case for migration.\n");
  return 0;
}
