#include "ooc/dense.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <stdexcept>

#include "common/thread_pool.hpp"

namespace nvmooc {

void DenseMatrix::fill_random(Rng& rng) {
  for (double& value : data_) value = rng.next_normal();
}

void DenseMatrix::add_scaled(const DenseMatrix& other, double alpha) {
  if (other.rows_ != rows_ || other.cols_ != cols_) {
    throw std::invalid_argument("DenseMatrix::add_scaled: shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
}

std::vector<double> DenseMatrix::column_norms() const {
  std::vector<double> sums(cols_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row_ptr = row(r);
    for (std::size_t c = 0; c < cols_; ++c) sums[c] += row_ptr[c] * row_ptr[c];
  }
  for (double& value : sums) value = std::sqrt(value);
  return sums;
}

DenseMatrix gemm_tn(const DenseMatrix& a, const DenseMatrix& b) {
  if (a.rows() != b.rows()) throw std::invalid_argument("gemm_tn: row mismatch");
  const std::size_t m1 = a.cols();
  const std::size_t m2 = b.cols();
  DenseMatrix c(m1, m2);

  ThreadPool& pool = global_thread_pool();
  const std::size_t chunks = std::max<std::size_t>(1, pool.thread_count() * 2);
  const std::size_t chunk_rows = (a.rows() + chunks - 1) / chunks;

  // Deterministic reduction: partials indexed by chunk, summed in order.
  std::vector<std::vector<double>> partials(chunks, std::vector<double>(m1 * m2, 0.0));
  for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
    pool.submit([&, chunk] {
      const std::size_t lo = chunk * chunk_rows;
      const std::size_t hi = std::min(a.rows(), lo + chunk_rows);
      std::vector<double>& local = partials[chunk];
      for (std::size_t r = lo; r < hi; ++r) {
        const double* ar = a.row(r);
        const double* br = b.row(r);
        for (std::size_t i = 0; i < m1; ++i) {
          const double av = ar[i];
          double* out = local.data() + i * m2;
          for (std::size_t j = 0; j < m2; ++j) out[j] += av * br[j];
        }
      }
    });
  }
  pool.wait();
  for (const auto& local : partials) {
    for (std::size_t i = 0; i < m1 * m2; ++i) c.data()[i] += local[i];
  }
  return c;
}

DenseMatrix gemm_nn(const DenseMatrix& x, const std::vector<double>& c,
                    std::size_t c_cols) {
  const std::size_t m = x.cols();
  if (c.size() != m * c_cols) throw std::invalid_argument("gemm_nn: C shape mismatch");
  DenseMatrix y(x.rows(), c_cols);

  ThreadPool& pool = global_thread_pool();
  pool.parallel_for(0, x.rows(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      const double* xr = x.row(r);
      double* yr = y.row(r);
      for (std::size_t i = 0; i < m; ++i) {
        const double xv = xr[i];
        const double* crow = c.data() + i * c_cols;
        for (std::size_t j = 0; j < c_cols; ++j) yr[j] += xv * crow[j];
      }
    }
  });
  return y;
}

bool cholesky_in_place(std::vector<double>& a, std::size_t m) {
  for (std::size_t k = 0; k < m; ++k) {
    double diag = a[k * m + k];
    for (std::size_t p = 0; p < k; ++p) diag -= a[k * m + p] * a[k * m + p];
    if (diag <= 0.0 || !std::isfinite(diag)) return false;
    const double lkk = std::sqrt(diag);
    a[k * m + k] = lkk;
    for (std::size_t i = k + 1; i < m; ++i) {
      double value = a[i * m + k];
      for (std::size_t p = 0; p < k; ++p) value -= a[i * m + p] * a[k * m + p];
      a[i * m + k] = value / lkk;
    }
    for (std::size_t j = k + 1; j < m; ++j) a[k * m + j] = 0.0;  // zero upper
  }
  return true;
}

namespace {

/// X := X * L^-T for lower-triangular L (row-major m x m): forward
/// substitution per row. Threaded over rows.
void apply_inverse_transpose(DenseMatrix& x, const std::vector<double>& l) {
  const std::size_t m = x.cols();
  ThreadPool& pool = global_thread_pool();
  pool.parallel_for(0, x.rows(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      double* row = x.row(r);
      // Solve y * L^T = row, i.e. y_j = (row_j - sum_{k<j} y_k L_{j,k}) / L_{j,j}.
      for (std::size_t j = 0; j < m; ++j) {
        double value = row[j];
        for (std::size_t k = 0; k < j; ++k) value -= row[k] * l[j * m + k];
        row[j] = value / l[j * m + j];
      }
    }
  });
}

std::size_t modified_gram_schmidt(DenseMatrix& x) {
  const std::size_t m = x.cols();
  const std::size_t n = x.rows();
  std::size_t rank = 0;
  for (std::size_t j = 0; j < m; ++j) {
    // Project out previously accepted columns.
    for (std::size_t k = 0; k < rank; ++k) {
      double dot = 0.0;
      for (std::size_t r = 0; r < n; ++r) dot += x.at(r, k) * x.at(r, j);
      for (std::size_t r = 0; r < n; ++r) x.at(r, j) -= dot * x.at(r, k);
    }
    double norm = 0.0;
    for (std::size_t r = 0; r < n; ++r) norm += x.at(r, j) * x.at(r, j);
    norm = std::sqrt(norm);
    if (norm < 1e-12) continue;  // Linearly dependent: drop (leave zero).
    for (std::size_t r = 0; r < n; ++r) x.at(r, j) /= norm;
    // Move accepted column into position `rank`.
    if (j != rank) {
      for (std::size_t r = 0; r < n; ++r) std::swap(x.at(r, rank), x.at(r, j));
    }
    ++rank;
  }
  return rank;
}

}  // namespace

std::size_t orthonormalize(DenseMatrix& x) {
  const std::size_t m = x.cols();
  DenseMatrix gram = gemm_tn(x, x);
  std::vector<double> g(gram.data(), gram.data() + m * m);
  if (cholesky_in_place(g, m)) {
    apply_inverse_transpose(x, g);
    return m;
  }
  return modified_gram_schmidt(x);
}

bool orthonormalize_pair(DenseMatrix& s, DenseMatrix& hs) {
  // Strict Cholesky-QR: no ridge. Regularising a near-singular Gram
  // matrix "succeeds" numerically but produces enormous basis vectors
  // and garbage Rayleigh-Ritz values downstream; reporting failure lets
  // the solver shrink its trial basis instead, which is stable.
  const std::size_t m = s.cols();
  const DenseMatrix gram = gemm_tn(s, s);
  std::vector<double> g(gram.data(), gram.data() + m * m);
  // Reject ill-conditioning Cholesky would technically survive: a pivot
  // collapsing by ~1e13 relative to its diagonal means the basis is
  // numerically dependent.
  if (!cholesky_in_place(g, m)) return false;
  for (std::size_t i = 0; i < m; ++i) {
    const double diag = gram.at(i, i);
    const double pivot = g[i * m + i];
    // A collapsing pivot means L^-T has a huge row: it would amplify any
    // drift between S and HS catastrophically. Treat as dependent.
    if (!(pivot * pivot > diag * 1e-10)) return false;
  }
  apply_inverse_transpose(s, g);
  apply_inverse_transpose(hs, g);
  return true;
}

DenseMatrix hstack(const DenseMatrix& a, const DenseMatrix& b) {
  if (a.rows() != b.rows()) throw std::invalid_argument("hstack: row mismatch");
  DenseMatrix out(a.rows(), a.cols() + b.cols());
  ThreadPool& pool = global_thread_pool();
  pool.parallel_for(0, a.rows(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t r = lo; r < hi; ++r) {
      double* dst = out.row(r);
      const double* ar = a.row(r);
      std::copy(ar, ar + a.cols(), dst);
      const double* br = b.row(r);
      std::copy(br, br + b.cols(), dst + a.cols());
    }
  });
  return out;
}

}  // namespace nvmooc
