// Tests for the numerical OoC substrate: dense kernels, Jacobi, the
// synthetic Hamiltonian, out-of-core SpMM, LOBPCG correctness, and trace
// capture.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "ooc/csr.hpp"
#include "ooc/dense.hpp"
#include "ooc/jacobi.hpp"
#include "ooc/lobpcg.hpp"
#include "ooc/ooc_operator.hpp"
#include "ooc/pagerank.hpp"
#include "ooc/tile_store.hpp"
#include "ooc/workload.hpp"

namespace nvmooc {
namespace {

// Y = A * X in core, row by row: the reference the out-of-core kernels
// must reproduce.
DenseMatrix multiply(const CsrMatrix& a, const DenseMatrix& x) {
  DenseMatrix y(a.rows(), x.cols());
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::int64_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
      const auto i = static_cast<std::size_t>(k);
      const auto c = static_cast<std::size_t>(a.col_index()[i]);
      for (std::size_t j = 0; j < x.cols(); ++j) y.at(r, j) += a.values()[i] * x.at(c, j);
    }
  }
  return y;
}

// PageRank with the transition matrix streamed from memory in 256-row
// tiles.
PagerankResult pagerank(const WebGraph& graph) {
  MemoryStorage storage(graph.transition.storage_bytes(0, graph.transition.rows()) + MiB);
  return pagerank_out_of_core(graph, storage, 256);
}

// `iterations` in-core power-iteration steps from the uniform vector,
// dangling pages' rank spread evenly: the out-of-core solver's reference.
std::vector<double> reference_pagerank(const WebGraph& graph, std::size_t iterations) {
  const CsrMatrix& p = graph.transition;
  const std::size_t n = p.rows();
  const double damping = PagerankOptions{}.damping;
  std::vector<double> x(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  for (std::size_t step = 0; step < iterations; ++step) {
    double dangling_mass = 0.0;
    for (std::uint32_t node : graph.dangling) dangling_mass += x[node];
    const double base = (1.0 - damping + damping * dangling_mass) / static_cast<double>(n);
    for (std::size_t r = 0; r < n; ++r) {
      double sum = 0.0;
      for (std::int64_t k = p.row_ptr()[r]; k < p.row_ptr()[r + 1]; ++k) {
        const auto i = static_cast<std::size_t>(k);
        sum += p.values()[i] * x[static_cast<std::size_t>(p.col_index()[i])];
      }
      next[r] = base + damping * sum;
    }
    x.swap(next);
  }
  return x;
}

// ---------- dense -----------------------------------------------------------

TEST(Dense, GemmTnMatchesManual) {
  DenseMatrix a(3, 2);
  DenseMatrix b(3, 2);
  // a = [[1,2],[3,4],[5,6]], b = [[1,0],[0,1],[1,1]].
  double av[] = {1, 2, 3, 4, 5, 6};
  double bv[] = {1, 0, 0, 1, 1, 1};
  std::copy(av, av + 6, a.data());
  std::copy(bv, bv + 6, b.data());
  const DenseMatrix c = gemm_tn(a, b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 1 * 1 + 3 * 0 + 5 * 1);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 1 * 0 + 3 * 1 + 5 * 1);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 2 * 1 + 4 * 0 + 6 * 1);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 2 * 0 + 4 * 1 + 6 * 1);
}

TEST(Dense, GemmTnDeterministicAcrossRuns) {
  Rng rng(3);
  DenseMatrix a(5000, 4);
  a.fill_random(rng);
  const DenseMatrix c1 = gemm_tn(a, a);
  const DenseMatrix c2 = gemm_tn(a, a);
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(c1.data()[i], c2.data()[i]);  // Bitwise reproducible.
  }
}

TEST(Dense, GemmNnMatchesManual) {
  DenseMatrix x(2, 2);
  double xv[] = {1, 2, 3, 4};
  std::copy(xv, xv + 4, x.data());
  const std::vector<double> c = {1, 0, 1, 1};  // 2x2.
  const DenseMatrix y = gemm_nn(x, c, 2);
  EXPECT_DOUBLE_EQ(y.at(0, 0), 1 * 1 + 2 * 1);
  EXPECT_DOUBLE_EQ(y.at(0, 1), 2 * 1);
  EXPECT_DOUBLE_EQ(y.at(1, 0), 3 + 4);
  EXPECT_DOUBLE_EQ(y.at(1, 1), 4);
}

TEST(Dense, CholeskyFactorsSpdMatrix) {
  std::vector<double> a = {4, 2, 2, 3};  // SPD.
  ASSERT_TRUE(cholesky_in_place(a, 2));
  EXPECT_DOUBLE_EQ(a[0], 2.0);
  EXPECT_DOUBLE_EQ(a[2], 1.0);
  EXPECT_NEAR(a[3], std::sqrt(2.0), 1e-14);
}

TEST(Dense, CholeskyRejectsIndefinite) {
  std::vector<double> a = {1, 2, 2, 1};  // Indefinite.
  EXPECT_FALSE(cholesky_in_place(a, 2));
}

TEST(Dense, OrthonormalizeProducesOrthonormalColumns) {
  Rng rng(17);
  DenseMatrix x(2000, 6);
  x.fill_random(rng);
  EXPECT_EQ(orthonormalize(x), 6u);
  const DenseMatrix gram = gemm_tn(x, x);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_NEAR(gram.at(i, j), i == j ? 1.0 : 0.0, 1e-10);
    }
  }
}

TEST(Dense, OrthonormalizeHandlesRankDeficiency) {
  DenseMatrix x(100, 3);
  Rng rng(5);
  x.fill_random(rng);
  for (std::size_t r = 0; r < 100; ++r) x.at(r, 2) = 2.0 * x.at(r, 0);  // Dependent.
  const std::size_t rank = orthonormalize(x);
  EXPECT_EQ(rank, 2u);
}

TEST(Dense, OrthonormalizePairKeepsHsConsistent) {
  Rng rng(23);
  const std::size_t n = 1500;
  DenseMatrix s(n, 4);
  s.fill_random(rng);
  // A = diag(1..n): HS computable directly.
  auto apply = [&](const DenseMatrix& m) {
    DenseMatrix out(m.rows(), m.cols());
    for (std::size_t r = 0; r < m.rows(); ++r) {
      for (std::size_t c = 0; c < m.cols(); ++c) {
        out.at(r, c) = static_cast<double>(r + 1) * m.at(r, c);
      }
    }
    return out;
  };
  DenseMatrix hs = apply(s);
  ASSERT_TRUE(orthonormalize_pair(s, hs));
  // Invariant: hs == apply(s) after the joint basis change.
  const DenseMatrix expected = apply(s);
  double max_err = 0;
  for (std::size_t i = 0; i < n * 4; ++i) {
    max_err = std::max(max_err, std::abs(expected.data()[i] - hs.data()[i]));
  }
  EXPECT_LT(max_err, 1e-8);
}

TEST(Dense, HstackConcatenates) {
  DenseMatrix a(3, 1);
  DenseMatrix b(3, 2);
  for (std::size_t r = 0; r < 3; ++r) {
    a.at(r, 0) = 1 + static_cast<double>(r);
    b.at(r, 0) = 10 + static_cast<double>(r);
    b.at(r, 1) = 20 + static_cast<double>(r);
  }
  const DenseMatrix c = hstack(a, b);
  EXPECT_EQ(c.cols(), 3u);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 2);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 11);
  EXPECT_DOUBLE_EQ(c.at(1, 2), 21);
}

// ---------- jacobi ------------------------------------------------------------

TEST(Jacobi, DiagonalMatrixIsImmediate) {
  const std::vector<double> a = {3, 0, 0, 0, 1, 0, 0, 0, 2};
  const EigenDecomposition eig = jacobi_eigensolver(a, 3);
  ASSERT_TRUE(eig.converged);
  EXPECT_DOUBLE_EQ(eig.values[0], 1.0);
  EXPECT_DOUBLE_EQ(eig.values[1], 2.0);
  EXPECT_DOUBLE_EQ(eig.values[2], 3.0);
}

TEST(Jacobi, Known2x2) {
  // [[2,1],[1,2]] -> eigenvalues 1 and 3.
  const EigenDecomposition eig = jacobi_eigensolver({2, 1, 1, 2}, 2);
  ASSERT_TRUE(eig.converged);
  EXPECT_NEAR(eig.values[0], 1.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 3.0, 1e-12);
  // Eigenvector for lambda=1 is (1,-1)/sqrt(2) up to sign.
  const double ratio = eig.vectors[0 * 2 + 0] / eig.vectors[1 * 2 + 0];
  EXPECT_NEAR(ratio, -1.0, 1e-10);
}

TEST(Jacobi, ReconstructsRandomSymmetric) {
  Rng rng(31);
  const std::size_t m = 12;
  std::vector<double> a(m * m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i; j < m; ++j) {
      const double v = rng.next_normal();
      a[i * m + j] = v;
      a[j * m + i] = v;
    }
  }
  const EigenDecomposition eig = jacobi_eigensolver(a, m);
  ASSERT_TRUE(eig.converged);
  // Check A*v = lambda*v for each pair.
  for (std::size_t k = 0; k < m; ++k) {
    for (std::size_t i = 0; i < m; ++i) {
      double av = 0;
      for (std::size_t j = 0; j < m; ++j) av += a[i * m + j] * eig.vectors[j * m + k];
      EXPECT_NEAR(av, eig.values[k] * eig.vectors[i * m + k], 1e-9);
    }
  }
  // Ascending order.
  for (std::size_t k = 1; k < m; ++k) EXPECT_LE(eig.values[k - 1], eig.values[k]);
}

TEST(Jacobi, EigenvectorsOrthogonal) {
  const EigenDecomposition eig = jacobi_eigensolver({5, 2, 1, 2, 4, 0, 1, 0, 3}, 3);
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) {
      double dot = 0;
      for (int i = 0; i < 3; ++i) dot += eig.vectors[i * 3 + a] * eig.vectors[i * 3 + b];
      EXPECT_NEAR(dot, a == b ? 1.0 : 0.0, 1e-10);
    }
  }
}

// ---------- CSR / Hamiltonian ---------------------------------------------

TEST(Csr, MultiplyMatchesDense) {
  // Small CSR through the out-of-core kernel vs hand-multiplied result.
  // A = [[2,0,1],[0,3,0],[1,0,4]], two rows per tile.
  CsrMatrix a(3, {0, 2, 3, 5}, {0, 2, 1, 0, 2}, {2, 1, 3, 1, 4});
  MemoryStorage storage(MiB);
  const OocHamiltonian ooc(a, storage, 2);
  DenseMatrix x(3, 2);
  double xv[] = {1, 1, 2, 0, 3, 1};
  std::copy(xv, xv + 6, x.data());
  const DenseMatrix y = ooc.apply(x);
  EXPECT_DOUBLE_EQ(y.at(0, 0), 2 * 1 + 1 * 3);
  EXPECT_DOUBLE_EQ(y.at(0, 1), 2 * 1 + 1 * 1);
  EXPECT_DOUBLE_EQ(y.at(1, 0), 3 * 2);
  EXPECT_DOUBLE_EQ(y.at(2, 0), 1 * 1 + 4 * 3);
}

TEST(Csr, RejectsInconsistentShape) {
  EXPECT_THROW(CsrMatrix(2, {0, 1}, {0}, {1.0}), std::invalid_argument);
  EXPECT_THROW(CsrMatrix(2, {0, 1, 3}, {0}, {1.0}), std::invalid_argument);
}

TEST(Hamiltonian, IsSymmetricWithSortedRows) {
  HamiltonianParams params;
  params.dimension = 600;
  params.band_width = 24;
  const CsrMatrix h = synthetic_hamiltonian(params);
  EXPECT_TRUE(h.is_symmetric(0.0));
  for (std::size_t r = 0; r < h.rows(); ++r) {
    for (std::int64_t k = h.row_ptr()[r] + 1; k < h.row_ptr()[r + 1]; ++k) {
      EXPECT_LT(h.col_index()[static_cast<std::size_t>(k - 1)],
                h.col_index()[static_cast<std::size_t>(k)]);
    }
  }
}

TEST(Hamiltonian, HasFullDiagonalAndIsSparse) {
  HamiltonianParams params;
  params.dimension = 500;
  const CsrMatrix h = synthetic_hamiltonian(params);
  for (std::size_t r = 0; r < h.rows(); ++r) {
    bool has_diag = false;
    for (std::int64_t k = h.row_ptr()[r]; k < h.row_ptr()[r + 1]; ++k) {
      if (h.col_index()[static_cast<std::size_t>(k)] == static_cast<std::int32_t>(r)) {
        has_diag = true;
      }
    }
    EXPECT_TRUE(has_diag) << "row " << r;
  }
  EXPECT_LT(h.nnz(), h.rows() * h.rows() / 10);
}

TEST(Hamiltonian, DeterministicForSeed) {
  HamiltonianParams params;
  params.dimension = 300;
  const CsrMatrix a = synthetic_hamiltonian(params);
  const CsrMatrix b = synthetic_hamiltonian(params);
  ASSERT_EQ(a.nnz(), b.nnz());
  EXPECT_EQ(a.values(), b.values());
}

// ---------- storage / OoC operator ------------------------------------------

TEST(Storage, MemoryRoundTrip) {
  MemoryStorage storage(Bytes{1024});
  const char payload[] = "hello nvm";
  storage.write(Bytes{100}, payload, Bytes{sizeof(payload)});
  char back[sizeof(payload)] = {};
  storage.read(Bytes{100}, back, Bytes{sizeof(payload)});
  EXPECT_STREQ(back, payload);
  EXPECT_THROW(storage.read(Bytes{1020}, back, Bytes{10}), std::out_of_range);
}

TEST(Storage, TracedRecordsAccesses) {
  MemoryStorage backing(Bytes{4096});
  TracedStorage traced(backing);
  char buf[16] = {};
  traced.write(Bytes{}, buf, Bytes{16});
  traced.read(Bytes{100}, buf, Bytes{8});
  const Trace& trace = traced.trace();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].op, NvmOp::kWrite);
  EXPECT_EQ(trace[1].op, NvmOp::kRead);
  EXPECT_EQ(trace[1].offset, Bytes{100});
  EXPECT_EQ(trace[1].size, Bytes{8});
}

TEST(OocOperator, ApplyMatchesInCore) {
  HamiltonianParams params;
  params.dimension = 800;
  params.band_width = 32;
  const CsrMatrix h = synthetic_hamiltonian(params);
  MemoryStorage storage(h.storage_bytes(0, h.rows()) + MiB);
  OocHamiltonian ooc(h, storage, 128);

  Rng rng(7);
  DenseMatrix x(h.rows(), 5);
  x.fill_random(rng);
  const DenseMatrix expected = multiply(h, x);
  const DenseMatrix actual = ooc.apply(x);
  double max_err = 0;
  for (std::size_t i = 0; i < h.rows() * 5; ++i) {
    max_err = std::max(max_err, std::abs(expected.data()[i] - actual.data()[i]));
  }
  EXPECT_LT(max_err, 1e-12);
  EXPECT_EQ(ooc.tile_count(), (800 + 127) / 128);
}

TEST(OocOperator, ReadsAreSequentialTiles) {
  HamiltonianParams params;
  params.dimension = 512;
  const CsrMatrix h = synthetic_hamiltonian(params);
  MemoryStorage backing(h.storage_bytes(0, h.rows()) + MiB);
  TracedStorage traced(backing);
  OocHamiltonian ooc(h, traced, 64);
  (void)traced.take_trace();  // Drop pre-load writes.

  DenseMatrix x(h.rows(), 3);
  Rng rng(9);
  x.fill_random(rng);
  ooc.apply(x);
  const Trace trace = traced.take_trace();
  EXPECT_EQ(trace.size(), ooc.tile_count());
  EXPECT_DOUBLE_EQ(trace.stats().sequentiality, 1.0);
  EXPECT_DOUBLE_EQ(trace.stats().read_fraction, 1.0);
}

// ---------- LOBPCG -----------------------------------------------------------

TEST(Lobpcg, DiagonalOperatorFindsLowestEigenvalues) {
  const std::size_t n = 500;
  auto apply = [&](const DenseMatrix& x) {
    DenseMatrix y(x.rows(), x.cols());
    for (std::size_t r = 0; r < x.rows(); ++r) {
      for (std::size_t c = 0; c < x.cols(); ++c) {
        y.at(r, c) = static_cast<double>(r + 1) * x.at(r, c);
      }
    }
    return y;
  };
  LobpcgOptions options;
  options.block_size = 4;
  options.tolerance = 1e-8;
  options.max_iterations = 300;
  const LobpcgResult result = lobpcg(apply, n, options);
  ASSERT_TRUE(result.converged);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(result.eigenvalues[j], static_cast<double>(j + 1), 1e-5);
  }
}

TEST(Lobpcg, MatchesJacobiOnSmallHamiltonian) {
  HamiltonianParams params;
  params.dimension = 120;
  params.band_width = 12;
  params.long_range_per_row = 2;
  const CsrMatrix h = synthetic_hamiltonian(params);

  // Dense reference via Jacobi.
  const std::size_t n = h.rows();
  std::vector<double> dense(n * n, 0.0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::int64_t k = h.row_ptr()[r]; k < h.row_ptr()[r + 1]; ++k) {
      dense[r * n + static_cast<std::size_t>(h.col_index()[static_cast<std::size_t>(k)])] =
          h.values()[static_cast<std::size_t>(k)];
    }
  }
  const EigenDecomposition reference = jacobi_eigensolver(dense, n);

  LobpcgOptions options;
  options.block_size = 5;
  options.tolerance = 1e-7;
  options.max_iterations = 500;
  const LobpcgResult result =
      lobpcg([&](const DenseMatrix& x) { return multiply(h, x); }, n, options);
  ASSERT_TRUE(result.converged);
  for (std::size_t j = 0; j < 3; ++j) {  // Lowest few must match tightly.
    EXPECT_NEAR(result.eigenvalues[j], reference.values[j], 1e-4);
  }
}

TEST(Lobpcg, PreconditionerAccelerates) {
  // Strongly diagonal operator: the inverse-diagonal preconditioner
  // should not hurt and typically converges in fewer iterations.
  const std::size_t n = 400;
  std::vector<double> diag(n);
  for (std::size_t i = 0; i < n; ++i) diag[i] = 1.0 + static_cast<double>(i * i) / 100.0;
  auto apply = [&](const DenseMatrix& x) {
    DenseMatrix y(x.rows(), x.cols());
    for (std::size_t r = 0; r < x.rows(); ++r) {
      for (std::size_t c = 0; c < x.cols(); ++c) y.at(r, c) = diag[r] * x.at(r, c);
    }
    return y;
  };
  LobpcgOptions plain;
  plain.block_size = 3;
  plain.tolerance = 1e-7;
  LobpcgOptions preconditioned = plain;
  preconditioned.inverse_diagonal.resize(n);
  for (std::size_t i = 0; i < n; ++i) preconditioned.inverse_diagonal[i] = 1.0 / diag[i];

  const LobpcgResult a = lobpcg(apply, n, plain);
  const LobpcgResult b = lobpcg(apply, n, preconditioned);
  ASSERT_TRUE(b.converged);
  EXPECT_LE(b.iterations, a.iterations + 5);
  EXPECT_NEAR(b.eigenvalues[0], 1.0, 1e-4);
}

TEST(Lobpcg, RejectsBadArguments) {
  auto identity = [](const DenseMatrix& x) { return x; };
  LobpcgOptions options;
  options.block_size = 0;
  EXPECT_THROW(lobpcg(identity, 100, options), std::invalid_argument);
  options.block_size = 50;
  EXPECT_THROW(lobpcg(identity, 100, options), std::invalid_argument);  // n < 3m.
}

// ---------- pagerank -----------------------------------------------------------

TEST(Pagerank, RanksFormDistribution) {
  WebGraphParams params;
  params.nodes = 2000;
  const WebGraph graph = synthetic_web_graph(params);
  const PagerankResult result = pagerank(graph);
  ASSERT_TRUE(result.converged);
  double total = 0.0;
  for (double rank : result.ranks) {
    EXPECT_GT(rank, 0.0);
    total += rank;
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Pagerank, TransitionIsColumnStochastic) {
  WebGraphParams params;
  params.nodes = 1500;
  const WebGraph graph = synthetic_web_graph(params);
  // Sum of each column (= per-source outgoing weight) is 1 for
  // non-dangling pages and 0 for dangling ones.
  std::vector<double> column_sums(params.nodes, 0.0);
  const CsrMatrix& p = graph.transition;
  for (std::size_t r = 0; r < p.rows(); ++r) {
    for (std::int64_t k = p.row_ptr()[r]; k < p.row_ptr()[r + 1]; ++k) {
      column_sums[static_cast<std::size_t>(p.col_index()[static_cast<std::size_t>(k)])] +=
          p.values()[static_cast<std::size_t>(k)];
    }
  }
  std::vector<bool> dangling(params.nodes, false);
  for (std::uint32_t node : graph.dangling) dangling[node] = true;
  for (std::size_t src = 0; src < params.nodes; ++src) {
    EXPECT_NEAR(column_sums[src], dangling[src] ? 0.0 : 1.0, 1e-12) << "src " << src;
  }
}

TEST(Pagerank, HubsOutrankLeaves) {
  WebGraphParams params;
  params.nodes = 3000;
  params.target_skew = 1.3;
  const WebGraph graph = synthetic_web_graph(params);
  const PagerankResult result = pagerank(graph);
  // The best-ranked page must hold far more than the uniform share.
  const double top = *std::max_element(result.ranks.begin(), result.ranks.end());
  EXPECT_GT(top, 10.0 / static_cast<double>(params.nodes));
}

TEST(Pagerank, OutOfCoreMatchesInCore) {
  WebGraphParams params;
  params.nodes = 2500;
  const WebGraph graph = synthetic_web_graph(params);
  const PagerankResult out_of_core = pagerank(graph);
  ASSERT_TRUE(out_of_core.converged);
  const std::vector<double> in_core = reference_pagerank(graph, out_of_core.iterations);
  for (std::size_t i = 0; i < graph.transition.rows(); ++i) {
    EXPECT_NEAR(in_core[i], out_of_core.ranks[i], 1e-12);
  }
}

TEST(Pagerank, OocIoIsIterativeSequentialSweeps) {
  WebGraphParams params;
  params.nodes = 2000;
  const WebGraph graph = synthetic_web_graph(params);
  MemoryStorage backing(graph.transition.storage_bytes(0, graph.transition.rows()) + MiB);
  TracedStorage traced(backing);
  const PagerankResult result = pagerank_out_of_core(graph, traced, 256, {});
  Trace reads;
  for (const PosixRequest& r : traced.trace().requests()) {
    if (r.op == NvmOp::kRead) reads.add(r);
  }
  // One full sequential sweep per iteration — the same OoC pattern as
  // the eigensolver.
  const std::size_t tiles = (2000 + 255) / 256;
  EXPECT_EQ(reads.size(), tiles * result.iterations);
  EXPECT_GT(reads.stats().sequentiality, 0.8);
}

// ---------- workload ----------------------------------------------------------

TEST(Workload, CaptureProducesIterativeSequentialTrace) {
  HamiltonianParams h_params;
  h_params.dimension = 600;
  h_params.band_width = 20;
  LobpcgOptions solver;
  solver.block_size = 4;
  solver.tolerance = 1e-5;
  solver.max_iterations = 30;
  const CapturedWorkload captured = capture_ooc_trace(h_params, 64, solver);
  EXPECT_GT(captured.trace.size(), 0u);
  EXPECT_GT(captured.dataset_bytes, Bytes{0});
  const TraceStats stats = captured.trace.stats();
  EXPECT_DOUBLE_EQ(stats.read_fraction, 1.0);  // Read-only solve.
  EXPECT_GT(stats.sequentiality, 0.8);         // Tile sweeps are sequential.
  // Each operator application reads the full dataset once.
  EXPECT_EQ(stats.total_bytes % captured.dataset_bytes, Bytes{0});
  EXPECT_EQ(stats.total_bytes / captured.dataset_bytes,
            captured.solution.operator_applications);
}

TEST(Workload, SynthesizedMatchesCapturedShape) {
  SyntheticWorkloadParams params;
  params.dataset_bytes = 32 * MiB;
  params.tile_bytes = 4 * MiB;
  params.sweeps = 3;
  params.checkpoint_bytes = Bytes{};
  const Trace trace = synthesize_ooc_trace(params);
  const TraceStats stats = trace.stats();
  EXPECT_EQ(stats.total_bytes, 96 * MiB);
  EXPECT_DOUBLE_EQ(stats.read_fraction, 1.0);
  EXPECT_EQ(trace.size(), 24u);
  EXPECT_GT(stats.sequentiality, 0.8);
}

TEST(Workload, CheckpointsAddWrites) {
  SyntheticWorkloadParams params;
  params.dataset_bytes = 16 * MiB;
  params.tile_bytes = 4 * MiB;
  params.sweeps = 2;
  params.checkpoint_bytes = 2 * MiB;
  const Trace trace = synthesize_ooc_trace(params);
  EXPECT_EQ(trace.stats().write_bytes, 4 * MiB);
  // Checkpoints land beyond the dataset (append region).
  for (const PosixRequest& r : trace.requests()) {
    if (r.op == NvmOp::kWrite) {
      EXPECT_GE(r.offset, params.dataset_bytes);
    }
  }
}

}  // namespace
}  // namespace nvmooc
