// Compressed-sparse-row matrices and the synthetic nuclear-CI
// Hamiltonian generator.
//
// The CI Hamiltonian is symmetric and sparse with a banded-block
// structure: many-body basis states are ordered so interactions connect
// states within a configuration band, plus scattered long-range
// couplings. The generator reproduces that shape (dense-ish diagonal
// band + power-law off-band couplings), is exactly symmetric, and is
// diagonally dominant enough to be well-conditioned for eigensolves.
#pragma once

#include <cstdint>
#include <vector>

#include "common/random.hpp"
#include "common/units.hpp"
#include "ooc/dense.hpp"

namespace nvmooc {

class CsrMatrix {
 public:
  CsrMatrix() = default;
  CsrMatrix(std::size_t rows, std::vector<std::int64_t> row_ptr,
            std::vector<std::int32_t> cols, std::vector<double> values);

  std::size_t rows() const { return rows_; }
  std::size_t nnz() const { return values_.size(); }

  const std::vector<std::int64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::int32_t>& col_index() const { return cols_; }
  const std::vector<double>& values() const { return values_; }

  /// Exact structural + numerical symmetry check (for tests).
  bool is_symmetric(double tolerance = 0.0) const;

  /// Bytes a row range occupies in the on-storage layout
  /// (values + column indices + row pointers).
  [[nodiscard]] Bytes storage_bytes(std::size_t row_begin, std::size_t row_end) const;

 private:
  std::size_t rows_ = 0;
  std::vector<std::int64_t> row_ptr_;
  std::vector<std::int32_t> cols_;
  std::vector<double> values_;
};

struct HamiltonianParams {
  std::size_t dimension = 4096;   ///< Basis size (rows of H).
  std::size_t band_width = 64;    ///< Half-width of the dense-ish band.
  double band_fill = 0.35;        ///< Fill probability inside the band.
  std::size_t long_range_per_row = 4;  ///< Scattered couplings per row.
  double diagonal_shift = 2.0;    ///< Added diagonal dominance.
  std::uint64_t seed = 42;
};

/// Generates the synthetic CI Hamiltonian described above.
CsrMatrix synthetic_hamiltonian(const HamiltonianParams& params);

}  // namespace nvmooc
