// Out-of-core Hamiltonian: H lives in tiled form on a Storage object and
// streams through memory one tile at a time during each SpMM — the
// paper's OoC computation pattern (H is pre-processed once, then read
// every solver iteration; Psi stays in memory).
#pragma once

#include <cstdint>
#include <vector>

#include "ooc/csr.hpp"
#include "ooc/tile_store.hpp"

namespace nvmooc {

class OocHamiltonian {
 public:
  /// Serialises `h` into `storage` as row tiles of `rows_per_tile` rows
  /// (the pre-load step) and keeps only the tile directory in memory.
  OocHamiltonian(const CsrMatrix& h, Storage& storage, std::size_t rows_per_tile);

  struct TileInfo {
    std::size_t row_begin;
    std::size_t row_end;
    Bytes offset;  ///< Where the tile starts on storage.
    Bytes bytes;   ///< Serialized length.
    std::int64_t nnz;
  };

  /// Y = H * X, streaming tiles from storage.
  DenseMatrix apply(const DenseMatrix& x) const;

  std::size_t tile_count() const { return tiles_.size(); }
  const TileInfo& tile(std::size_t index) const { return tiles_.at(index); }
  /// Total on-storage footprint of the dataset.
  [[nodiscard]] Bytes dataset_bytes() const { return dataset_bytes_; }

  /// Computes one tile's contribution from an already-read buffer —
  /// exposed so middleware (src/dooc) can overlap I/O with compute.
  void apply_tile(const TileInfo& tile, const std::vector<std::uint8_t>& buffer,
                  const DenseMatrix& x, DenseMatrix& y) const;

 private:
  Storage& storage_;
  std::size_t rows_ = 0;
  Bytes dataset_bytes_;
  std::vector<TileInfo> tiles_;
};

}  // namespace nvmooc
