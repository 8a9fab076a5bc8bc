// Out-of-core PageRank — the second OoC workload family the paper's
// introduction motivates (local PageRank estimation and external-memory
// graph traversals, refs [34][44]): a web-scale transition matrix too
// large for memory, streamed from storage once per power iteration.
//
// The transition matrix is built column-stochastic in CSR form so one
// tiled SpMV per iteration (through the same OocHamiltonian machinery as
// the eigensolver) advances the rank vector.
#pragma once

#include <cstdint>
#include <vector>

#include "common/random.hpp"
#include "ooc/csr.hpp"
#include "ooc/tile_store.hpp"

namespace nvmooc {

struct WebGraphParams {
  std::size_t nodes = 100000;
  double mean_out_degree = 12.0;
  /// Zipf skew of link targets (hubs attract most links).
  double target_skew = 1.1;
  std::uint64_t seed = 97;
};

/// Generates a synthetic power-law web graph and returns its PageRank
/// transition matrix P (row i holds the in-links of page i, weighted
/// 1/outdegree(source)), plus the list of dangling nodes.
struct WebGraph {
  CsrMatrix transition;               ///< Column-stochastic (up to dangling).
  std::vector<std::uint32_t> dangling;  ///< Pages with no out-links.
  std::size_t edges = 0;
};

WebGraph synthetic_web_graph(const WebGraphParams& params);

struct PagerankOptions {
  double damping = 0.85;
  double tolerance = 1e-9;  ///< L1 change per iteration.
  std::size_t max_iterations = 100;
};

struct PagerankResult {
  std::vector<double> ranks;  ///< Sums to 1.
  std::size_t iterations = 0;
  double final_delta = 0.0;
  bool converged = false;
};

/// Power iteration with the transition matrix streaming from `storage`
/// tile by tile each iteration (all I/O visible to a TracedStorage).
PagerankResult pagerank_out_of_core(const WebGraph& graph, Storage& storage,
                                    std::size_t rows_per_tile,
                                    const PagerankOptions& options = {});

}  // namespace nvmooc
