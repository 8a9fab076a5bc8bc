#include "ooc/csr.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/thread_pool.hpp"

namespace nvmooc {

CsrMatrix::CsrMatrix(std::size_t rows, std::vector<std::int64_t> row_ptr,
                     std::vector<std::int32_t> cols, std::vector<double> values)
    : rows_(rows), row_ptr_(std::move(row_ptr)), cols_(std::move(cols)),
      values_(std::move(values)) {
  if (row_ptr_.size() != rows_ + 1) throw std::invalid_argument("CsrMatrix: bad row_ptr");
  if (cols_.size() != values_.size()) throw std::invalid_argument("CsrMatrix: cols/values");
  if (static_cast<std::size_t>(row_ptr_.back()) != values_.size()) {
    throw std::invalid_argument("CsrMatrix: row_ptr/nnz mismatch");
  }
}

bool CsrMatrix::is_symmetric(double tolerance) const {
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      const std::size_t c = static_cast<std::size_t>(cols_[static_cast<std::size_t>(k)]);
      const double value = values_[static_cast<std::size_t>(k)];
      // Binary search row c for column r.
      const auto begin = cols_.begin() + row_ptr_[c];
      const auto end = cols_.begin() + row_ptr_[c + 1];
      const auto it = std::lower_bound(begin, end, static_cast<std::int32_t>(r));
      if (it == end || *it != static_cast<std::int32_t>(r)) return false;
      const double mirror = values_[static_cast<std::size_t>(it - cols_.begin())];
      if (std::abs(mirror - value) > tolerance) return false;
    }
  }
  return true;
}

Bytes CsrMatrix::storage_bytes(std::size_t row_begin, std::size_t row_end) const {
  const std::int64_t nnz_range = row_ptr_[row_end] - row_ptr_[row_begin];
  return static_cast<Bytes>(nnz_range) * (sizeof(double) + sizeof(std::int32_t)) +
         static_cast<Bytes>(row_end - row_begin + 1) * sizeof(std::int64_t);
}

CsrMatrix synthetic_hamiltonian(const HamiltonianParams& params) {
  const std::size_t n = params.dimension;
  Rng rng(params.seed);

  // Upper-triangle couplings, then mirrored: exact symmetry by
  // construction.
  struct Entry {
    std::uint32_t row;
    std::uint32_t col;
    double value;
  };
  std::vector<Entry> upper;
  upper.reserve(n * (static_cast<std::size_t>(params.band_width * params.band_fill) +
                     params.long_range_per_row + 1));
  std::vector<double> row_abs(n, 0.0);

  for (std::size_t i = 0; i < n; ++i) {
    // Banded block: configuration-mixing within the band, amplitude
    // decaying with distance from the diagonal.
    const std::size_t band_end = std::min(n, i + params.band_width + 1);
    for (std::size_t j = i + 1; j < band_end; ++j) {
      if (!rng.next_bool(params.band_fill)) continue;
      const double decay = 1.0 / std::sqrt(1.0 + static_cast<double>(j - i));
      const double value = rng.next_normal() * decay;
      upper.push_back({static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j), value});
      row_abs[i] += std::abs(value);
      row_abs[j] += std::abs(value);
    }
    // Long-range couplings beyond the band (3-body-force style sparsity).
    // Deduplicated per row: a basis pair couples through one matrix entry.
    std::size_t drawn[8] = {};
    std::size_t drawn_count = 0;
    for (std::size_t k = 0; k < params.long_range_per_row && k < 8; ++k) {
      if (band_end >= n) break;
      const std::size_t j = band_end + rng.next_below(n - band_end);
      bool duplicate = false;
      for (std::size_t d = 0; d < drawn_count; ++d) duplicate |= drawn[d] == j;
      if (duplicate) continue;
      drawn[drawn_count++] = j;
      const double value = 0.1 * rng.next_normal();
      upper.push_back({static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j), value});
      row_abs[i] += std::abs(value);
      row_abs[j] += std::abs(value);
    }
  }

  // Count entries per row (upper + mirror + diagonal).
  std::vector<std::int64_t> row_ptr(n + 1, 0);
  for (const Entry& entry : upper) {
    ++row_ptr[entry.row + 1];
    ++row_ptr[entry.col + 1];
  }
  for (std::size_t i = 0; i < n; ++i) ++row_ptr[i + 1];  // diagonal
  for (std::size_t i = 0; i < n; ++i) row_ptr[i + 1] += row_ptr[i];

  const std::size_t nnz = static_cast<std::size_t>(row_ptr[n]);
  std::vector<std::int32_t> cols(nnz);
  std::vector<double> values(nnz);
  std::vector<std::int64_t> cursor(row_ptr.begin(), row_ptr.end() - 1);

  auto place = [&](std::size_t r, std::size_t c, double value) {
    const std::size_t slot = static_cast<std::size_t>(cursor[r]++);
    cols[slot] = static_cast<std::int32_t>(c);
    values[slot] = value;
  };

  // Rows receive entries in ascending column order if we emit diagonals
  // and mirrored entries carefully; simplest correct approach: place all,
  // then sort each row by column.
  for (std::size_t i = 0; i < n; ++i) {
    // Diagonal: band energy + dominance so the spectrum is bounded below
    // and Cholesky-QR in the solver stays stable.
    const double diag = row_abs[i] + params.diagonal_shift +
                        0.5 * std::sin(static_cast<double>(i) * 0.001);
    place(i, i, diag);
  }
  for (const Entry& entry : upper) {
    place(entry.row, entry.col, entry.value);
    place(entry.col, entry.row, entry.value);
  }

  ThreadPool& pool = global_thread_pool();
  pool.parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
    std::vector<std::pair<std::int32_t, double>> scratch;
    for (std::size_t r = lo; r < hi; ++r) {
      const std::size_t begin = static_cast<std::size_t>(row_ptr[r]);
      const std::size_t end = static_cast<std::size_t>(row_ptr[r + 1]);
      scratch.clear();
      for (std::size_t k = begin; k < end; ++k) scratch.emplace_back(cols[k], values[k]);
      std::sort(scratch.begin(), scratch.end());
      for (std::size_t k = begin; k < end; ++k) {
        cols[k] = scratch[k - begin].first;
        values[k] = scratch[k - begin].second;
      }
    }
  });

  return CsrMatrix(n, std::move(row_ptr), std::move(cols), std::move(values));
}

}  // namespace nvmooc
