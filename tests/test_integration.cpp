// End-to-end integration tests: the real OoC eigensolver producing a
// trace that flows through the full storage stack, DOoC middleware
// overlapping I/O with compute, and UFS-vs-FS comparisons on captured
// (not synthesized) traces.
#include <gtest/gtest.h>

#include "cluster/configs.hpp"
#include "cluster/engine.hpp"
#include "fs/presets.hpp"
#include "dooc/prefetcher.hpp"
#include "ooc/lobpcg.hpp"
#include "ooc/ooc_operator.hpp"
#include "ooc/workload.hpp"

namespace nvmooc {
namespace {

CapturedWorkload captured_fixture() {
  // Large enough that the serialized Hamiltonian spans dozens of GPFS
  // stripe chunks (so striping effects are visible), small enough for a
  // test-budget eigensolve.
  HamiltonianParams h_params;
  h_params.dimension = 16000;
  h_params.band_width = 64;
  h_params.band_fill = 0.35;
  h_params.seed = 11;
  LobpcgOptions solver;
  solver.block_size = 6;
  solver.tolerance = 1e-4;
  solver.max_iterations = 200;
  return capture_ooc_trace(h_params, 512, solver);
}

TEST(Integration, SolverConvergesAndTraceReplays) {
  const CapturedWorkload workload = captured_fixture();
  ASSERT_TRUE(workload.solution.converged);
  ASSERT_GT(workload.trace.size(), 0u);

  // Replay the captured trace through two full stacks; UFS on CNL must
  // beat a traditional FS on CNL on the same trace.
  const auto ext4 =
      run_experiment(cnl_fs_config(ext4_behavior(), NvmType::kMlc), workload.trace);
  const auto ufs = run_experiment(cnl_ufs_config(NvmType::kMlc), workload.trace);
  EXPECT_GT(ufs.achieved_mbps, ext4.achieved_mbps);
  EXPECT_EQ(ufs.payload_bytes, workload.trace.stats().total_bytes);
}

TEST(Integration, CapturedTraceShowsIterativeStructure) {
  const CapturedWorkload workload = captured_fixture();
  // One full-dataset sweep per operator application: offsets restart at
  // 0 exactly operator_applications times.
  std::size_t restarts = 0;
  for (const PosixRequest& request : workload.trace.requests()) {
    if (request.offset == Bytes{}) ++restarts;
  }
  EXPECT_EQ(restarts, workload.solution.operator_applications);
}

TEST(Integration, DoocPrefetcherOverlapsSolverIo) {
  // Run the same eigensolve twice: once with plain tile streaming, once
  // with the DOoC prefetcher driving tiles through a (simulated-latency)
  // storage; both must give identical eigenvalues.
  HamiltonianParams h_params;
  h_params.dimension = 900;
  h_params.band_width = 30;
  const CsrMatrix h = synthetic_hamiltonian(h_params);
  MemoryStorage storage(h.storage_bytes(0, h.rows()) + MiB);
  OocHamiltonian ooc(h, storage, 128);

  LobpcgOptions solver;
  solver.block_size = 4;
  solver.tolerance = 1e-6;
  solver.max_iterations = 120;

  const LobpcgResult plain =
      lobpcg([&](const DenseMatrix& x) { return ooc.apply(x); }, h.rows(), solver);

  // Prefetched apply: tiles stream through the prefetcher, compute
  // overlaps the next read.
  std::vector<TilePrefetcher::TileRef> tiles;
  for (std::size_t t = 0; t < ooc.tile_count(); ++t) {
    tiles.push_back({ooc.tile(t).offset, ooc.tile(t).bytes});
  }
  TilePrefetcher prefetcher(storage, tiles, 4);
  auto prefetched_apply = [&](const DenseMatrix& x) {
    DenseMatrix y(x.rows(), x.cols());
    for (std::size_t t = 0; t < ooc.tile_count(); ++t) {
      const auto buffer = prefetcher.get(t);
      ooc.apply_tile(ooc.tile(t), *buffer, x, y);
    }
    prefetcher.restart();
    return y;
  };
  const LobpcgResult overlapped = lobpcg(prefetched_apply, h.rows(), solver);

  ASSERT_TRUE(plain.converged);
  ASSERT_TRUE(overlapped.converged);
  for (std::size_t j = 0; j < solver.block_size; ++j) {
    EXPECT_NEAR(plain.eigenvalues[j], overlapped.eigenvalues[j], 1e-6);
  }
}

TEST(Integration, Figure6StripingContrast) {
  // The Figure 6 mechanism end to end: the POSIX trace is highly
  // sequential; below GPFS the block addresses are scrambled.
  const CapturedWorkload workload = captured_fixture();
  EXPECT_GT(workload.trace.stats().sequentiality, 0.8);

  FileSystemModel gpfs(gpfs_behavior());
  gpfs.mount(workload.trace.extent());
  Trace device_level;
  for (const PosixRequest& request : workload.trace.requests()) {
    for (const BlockRequest& block : gpfs.submit(request)) {
      if (!block.internal) device_level.add(NvmOp::kRead, block.offset, block.size);
    }
  }
  EXPECT_LT(device_level.stats().sequentiality,
            workload.trace.stats().sequentiality * 0.5);
}

TEST(Integration, PreloadThenIterateEndToEnd) {
  // The full paper workflow on one CNL node: provision a UFS object,
  // pre-load, replay the captured solve, and confirm the device saw only
  // reads (immutable dataset) at PAL4.
  const CapturedWorkload workload = captured_fixture();
  ReplayEngine engine(cnl_ufs_config(NvmType::kSlc));
  const ExperimentResult result = engine.run(workload.trace);
  EXPECT_GT(result.achieved_mbps, 0.0);
  EXPECT_EQ(engine.ssd().ftl_stats().writes, 0u);  // Read-only replay.
  EXPECT_GT(result.pal_fraction[3], 0.5);
}

}  // namespace
}  // namespace nvmooc
