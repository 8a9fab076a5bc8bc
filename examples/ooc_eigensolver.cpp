// The paper's application, end to end: build a synthetic nuclear-CI
// Hamiltonian, keep it out-of-core, and solve for its lowest eigenpairs
// with LOBPCG while DOoC-style prefetching overlaps tile I/O with the
// SpMM — then replay the captured I/O through the simulated storage
// stacks to see what each architecture would have delivered.
//
// Run: ./build/examples/ooc_eigensolver [dimension] [block_size]
#include <cstdio>
#include <limits>

#include "cluster/configs.hpp"
#include "common/wallclock.hpp"
#include "cluster/engine.hpp"
#include "dooc/prefetcher.hpp"
#include "fs/presets.hpp"
#include "obs/cli.hpp"
#include "ooc/lobpcg.hpp"
#include "ooc/ooc_operator.hpp"
#include "ooc/tile_store.hpp"

int main(int argc, char** argv) {
  using namespace nvmooc;
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  std::size_t dimension = 30000;
  std::size_t block = 8;
  if (argc > 1 && !obs::parse_number_flag("dimension", argv[1], std::size_t{1}, kMax, dimension)) {
    return 1;
  }
  if (argc > 2 && !obs::parse_number_flag("block_size", argv[2], std::size_t{1}, kMax, block)) {
    return 1;
  }

  // -- Build H (the pre-processing step the paper stores on disk). ------
  HamiltonianParams h_params;
  h_params.dimension = dimension;
  h_params.band_width = 64;
  h_params.band_fill = 0.35;
  h_params.long_range_per_row = 4;
  std::printf("Generating synthetic CI Hamiltonian: n=%zu ...\n", dimension);
  const CsrMatrix h = synthetic_hamiltonian(h_params);
  std::printf("  nnz=%zu (%.1f per row), symmetric=%s\n", h.nnz(),
              static_cast<double>(h.nnz()) / dimension,
              h.is_symmetric(0.0) ? "yes" : "NO");

  // -- Pre-load to (in-memory stand-in for) the compute-local SSD. ------
  MemoryStorage storage(h.storage_bytes(0, h.rows()) + 4 * MiB);
  TracedStorage traced(storage);
  OocHamiltonian ooc(h, traced, /*rows_per_tile=*/2048);
  (void)traced.take_trace();  // Pre-load happens before the timed window.
  std::printf("  dataset on storage: %.1f MiB in %zu tiles\n",
              static_cast<double>(ooc.dataset_bytes()) / static_cast<double>(MiB), ooc.tile_count());

  // -- Solve with DOoC prefetching overlapping I/O and compute. ---------
  std::vector<TilePrefetcher::TileRef> tiles;
  for (std::size_t t = 0; t < ooc.tile_count(); ++t) {
    tiles.push_back({ooc.tile(t).offset, ooc.tile(t).bytes});
  }
  TilePrefetcher prefetcher(traced, tiles, /*depth=*/4);

  LobpcgOptions options;
  options.block_size = block;
  options.tolerance = 1e-5;
  options.max_iterations = 300;

  const Time t0 = wallclock::now_ns();
  const LobpcgResult solution = lobpcg(
      [&](const DenseMatrix& x) {
        DenseMatrix y(x.rows(), x.cols());
        for (std::size_t t = 0; t < ooc.tile_count(); ++t) {
          const auto buffer = prefetcher.get(t);
          ooc.apply_tile(ooc.tile(t), *buffer, x, y);
        }
        prefetcher.restart();
        return y;
      },
      h.rows(), options);
  const double seconds = wallclock::to_seconds(wallclock::now_ns() - t0);

  std::printf("\nLOBPCG: %s in %zu iterations (%zu H applications, %.2f s wall)\n",
              solution.converged ? "converged" : "NOT converged", solution.iterations,
              solution.operator_applications, seconds);
  std::printf("  prefetch hits/stalls: %llu/%llu\n",
              static_cast<unsigned long long>(prefetcher.stats().hits),
              static_cast<unsigned long long>(prefetcher.stats().stalls));
  std::printf("  lowest eigenvalues:");
  for (std::size_t j = 0; j < std::min<std::size_t>(block, 8); ++j) {
    std::printf(" %.6f", solution.eigenvalues[j]);
  }
  std::printf("\n");

  // -- What would each storage architecture have delivered? -------------
  const Trace trace = traced.take_trace();
  std::printf("\nCaptured %zu POSIX requests (%.1f MiB of I/O); replaying through the\n"
              "simulated stacks:\n",
              trace.size(), static_cast<double>(trace.stats().total_bytes) / static_cast<double>(MiB));
  for (const auto& config :
       {ion_gpfs_config(NvmType::kMlc), cnl_fs_config(ext4_behavior(), NvmType::kMlc),
        cnl_ufs_config(NvmType::kMlc), cnl_native16_config(NvmType::kPcm)}) {
    const ExperimentResult result = run_experiment(config, trace);
    std::printf("  %-16s %-4s : %8.0f MB/s (I/O wall %.1f ms)\n", result.name.c_str(),
                std::string(to_string(result.media)).c_str(), result.achieved_mbps,
                static_cast<double>(result.makespan) / static_cast<double>(kMillisecond));
  }
  return solution.converged ? 0 : 1;
}
