#include "ooc/pagerank.hpp"

#include <algorithm>
#include <cmath>

#include "ooc/ooc_operator.hpp"

namespace nvmooc {

WebGraph synthetic_web_graph(const WebGraphParams& params) {
  const std::size_t n = params.nodes;
  Rng rng(params.seed);

  // Out-links per page ~ exponential around the mean; a slice of pages
  // dangles (no out-links), as real crawls have.
  std::vector<std::vector<std::uint32_t>> out_links(n);
  std::size_t edges = 0;
  for (std::size_t src = 0; src < n; ++src) {
    if (rng.next_bool(0.02)) continue;  // Dangling page.
    const std::size_t degree =
        1 + static_cast<std::size_t>(rng.next_exponential(1.0 / params.mean_out_degree));
    auto& links = out_links[src];
    links.reserve(degree);
    for (std::size_t k = 0; k < degree; ++k) {
      // Hubs attract: zipf-ranked target, displaced by a hash so rank 0
      // is not always node 0.
      const std::uint64_t rank = rng.next_zipf(n, params.target_skew);
      const std::uint32_t dst = static_cast<std::uint32_t>((rank * 2654435761u) % n);
      if (dst == src) continue;  // No self-links.
      links.push_back(dst);
    }
    std::sort(links.begin(), links.end());
    links.erase(std::unique(links.begin(), links.end()), links.end());
    edges += links.size();
  }

  // Invert to in-link CSR with 1/outdegree weights: row i of P lists the
  // sources pointing at i.
  std::vector<std::int64_t> row_ptr(n + 1, 0);
  for (std::size_t src = 0; src < n; ++src) {
    for (std::uint32_t dst : out_links[src]) ++row_ptr[dst + 1];
  }
  for (std::size_t i = 0; i < n; ++i) row_ptr[i + 1] += row_ptr[i];
  std::vector<std::int32_t> cols(static_cast<std::size_t>(row_ptr[n]));
  std::vector<double> values(cols.size());
  std::vector<std::int64_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  for (std::size_t src = 0; src < n; ++src) {
    const double weight =
        out_links[src].empty() ? 0.0 : 1.0 / static_cast<double>(out_links[src].size());
    for (std::uint32_t dst : out_links[src]) {
      const std::size_t slot = static_cast<std::size_t>(cursor[dst]++);
      cols[slot] = static_cast<std::int32_t>(src);
      values[slot] = weight;
    }
  }
  // Rows already land sorted by source? Sources are visited in order, so
  // per destination the inserted columns ascend — CSR invariant holds.

  WebGraph graph;
  graph.transition = CsrMatrix(n, std::move(row_ptr), std::move(cols), std::move(values));
  for (std::size_t src = 0; src < n; ++src) {
    if (out_links[src].empty()) graph.dangling.push_back(static_cast<std::uint32_t>(src));
  }
  graph.edges = edges;
  return graph;
}

namespace {

/// One power-iteration step given y = P * x already computed.
double finish_step(const WebGraph& graph, const std::vector<double>& x,
                   const DenseMatrix& y, double damping, std::vector<double>& out) {
  const std::size_t n = x.size();
  double dangling_mass = 0.0;
  for (std::uint32_t node : graph.dangling) dangling_mass += x[node];
  const double base = (1.0 - damping) / static_cast<double>(n) +
                      damping * dangling_mass / static_cast<double>(n);
  double delta = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double next = base + damping * y.at(i, 0);
    delta += std::abs(next - x[i]);
    out[i] = next;
  }
  return delta;
}

}  // namespace

PagerankResult pagerank_out_of_core(const WebGraph& graph, Storage& storage,
                                    std::size_t rows_per_tile,
                                    const PagerankOptions& options) {
  const OocHamiltonian tiles(graph.transition, storage, rows_per_tile);
  const std::size_t n = graph.transition.rows();
  PagerankResult result;
  result.ranks.assign(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  DenseMatrix x(n, 1);

  for (std::size_t iteration = 0; iteration < options.max_iterations; ++iteration) {
    result.iterations = iteration + 1;
    for (std::size_t i = 0; i < n; ++i) x.at(i, 0) = result.ranks[i];
    const DenseMatrix y = tiles.apply(x);
    result.final_delta = finish_step(graph, result.ranks, y, options.damping, next);
    result.ranks.swap(next);
    if (result.final_delta < options.tolerance) {
      result.converged = true;
      break;
    }
  }
  return result;
}

}  // namespace nvmooc
