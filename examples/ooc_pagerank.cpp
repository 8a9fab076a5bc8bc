// Out-of-core PageRank: the other workload family the paper's intro
// motivates (external-memory graph computations). A power-law web graph's
// transition matrix streams from node-local storage once per power
// iteration; the captured I/O replays through the storage architectures.
//
// Run: ./build/examples/ooc_pagerank [nodes]
#include <algorithm>
#include <cstdio>
#include <limits>
#include <numeric>

#include "cluster/configs.hpp"
#include "cluster/engine.hpp"
#include "obs/cli.hpp"
#include "ooc/pagerank.hpp"
#include "ooc/tile_store.hpp"

int main(int argc, char** argv) {
  using namespace nvmooc;
  WebGraphParams params;
  params.nodes = 200000;
  if (argc > 1 && !obs::parse_number_flag("nodes", argv[1], std::size_t{1},
                                          std::numeric_limits<std::size_t>::max(),
                                          params.nodes)) {
    return 1;
  }

  std::printf("Generating power-law web graph: %zu pages ...\n", params.nodes);
  const WebGraph graph = synthetic_web_graph(params);
  std::printf("  %zu edges, %zu dangling pages, transition matrix %.1f MiB\n",
              graph.edges, graph.dangling.size(),
              static_cast<double>(graph.transition.storage_bytes(0, graph.transition.rows())) /
                  static_cast<double>(MiB));

  MemoryStorage backing(graph.transition.storage_bytes(0, graph.transition.rows()) + 2 * MiB);
  TracedStorage traced(backing);

  PagerankOptions options;
  options.tolerance = 1e-10;
  const PagerankResult result = pagerank_out_of_core(graph, traced, 8192, options);
  Trace trace = traced.take_trace();
  // Strip the pre-load writes (they happen before the timed window).
  Trace reads_only;
  for (const PosixRequest& request : trace.requests()) {
    if (request.op == NvmOp::kRead) reads_only.add(request);
  }

  std::printf("\nPageRank: %s after %zu iterations (final L1 delta %.2e)\n",
              result.converged ? "converged" : "NOT converged", result.iterations,
              result.final_delta);
  const double total = std::accumulate(result.ranks.begin(), result.ranks.end(), 0.0);
  std::printf("  rank mass: %.9f (should be 1)\n", total);

  std::vector<std::size_t> order(result.ranks.size());
  std::iota(order.begin(), order.end(), 0);
  std::partial_sort(order.begin(), order.begin() + 5, order.end(),
                    [&](std::size_t a, std::size_t b) {
                      return result.ranks[a] > result.ranks[b];
                    });
  std::printf("  top pages:");
  for (int i = 0; i < 5; ++i) {
    std::printf(" #%zu(%.2e)", order[static_cast<std::size_t>(i)],
                result.ranks[order[static_cast<std::size_t>(i)]]);
  }
  std::printf("\n");

  std::printf("\nCaptured %zu read requests (%.1f MiB); replay through the stacks:\n",
              reads_only.size(),
              static_cast<double>(reads_only.stats().total_bytes) / static_cast<double>(MiB));
  for (const auto& config : {ion_gpfs_config(NvmType::kMlc), cnl_ufs_config(NvmType::kMlc),
                             cnl_native16_config(NvmType::kPcm)}) {
    const ExperimentResult replay = run_experiment(config, reads_only);
    std::printf("  %-16s %-4s : %8.0f MB/s\n", replay.name.c_str(),
                std::string(to_string(replay.media)).c_str(), replay.achieved_mbps);
  }
  return result.converged ? 0 : 1;
}
