// Dense tall-skinny matrix kernels for the block eigensolver.
//
// Psi in the paper is "a tall, skinny matrix with as many rows as H and
// only about 10-20 columns"; every kernel here is shaped for that case:
// n is huge, m is tiny, so n-dimension loops are threaded and
// m x m work stays serial.
#pragma once

#include <cstddef>
#include <vector>

#include "common/random.hpp"

namespace nvmooc {

/// Row-major n x m dense matrix (m small).
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  double* row(std::size_t r) { return data_.data() + r * cols_; }
  const double* row(std::size_t r) const { return data_.data() + r * cols_; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  void fill_random(Rng& rng);

  /// this += alpha * other (same shape).
  void add_scaled(const DenseMatrix& other, double alpha);

  /// Per-column Euclidean norms.
  std::vector<double> column_norms() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// C (a.cols x b.cols) = A^T * B. Threaded over row blocks with a
/// deterministic reduction (per-thread partials summed in order).
DenseMatrix gemm_tn(const DenseMatrix& a, const DenseMatrix& b);

/// Y (x.rows x c_cols) = X * C where C is small (x.cols x c_cols),
/// given row-major C. Threaded over rows.
DenseMatrix gemm_nn(const DenseMatrix& x, const std::vector<double>& c,
                    std::size_t c_cols);

/// In-place Cholesky factorisation of a small symmetric positive-definite
/// matrix (row-major m x m); returns false if not positive definite.
bool cholesky_in_place(std::vector<double>& a, std::size_t m);

/// Orthonormalises X's columns via Cholesky-QR (X := X * L^-T). Falls
/// back to modified Gram-Schmidt when the Gram matrix is numerically
/// singular. Returns the numerical rank retained.
std::size_t orthonormalize(DenseMatrix& x);

/// Jointly orthonormalises S while applying the identical basis change to
/// HS (so HS stays equal to H*S). Uses Cholesky-QR with escalating ridge
/// regularisation; returns false when the basis is numerically singular
/// beyond repair (caller should shrink or rebuild it).
bool orthonormalize_pair(DenseMatrix& s, DenseMatrix& hs);

/// Horizontal concatenation [A | B]; shapes must share rows.
DenseMatrix hstack(const DenseMatrix& a, const DenseMatrix& b);

}  // namespace nvmooc
