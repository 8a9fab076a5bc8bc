// Ablation — LOBPCG block size: the OoC trade-off between I/O volume
// (every operator application streams the whole Hamiltonian) and
// convergence (bigger blocks converge in fewer iterations). Also serves
// as the numerical-kernel benchmark of the repository.
#include <map>

#include "bench_common.hpp"
#include "common/string_util.hpp"

namespace {

using namespace nvmooc;

struct SweepPoint {
  std::size_t block_size;
  std::size_t iterations;
  std::size_t applications;
  Bytes io_bytes;
  bool converged;
  double lowest;
};

SweepPoint run_point(std::size_t block_size) {
  HamiltonianParams h_params;
  h_params.dimension = 12000;
  h_params.band_width = 48;
  h_params.seed = 4;
  LobpcgOptions solver;
  solver.block_size = block_size;
  solver.tolerance = 1e-5;
  solver.max_iterations = 400;
  const CapturedWorkload workload = capture_ooc_trace(h_params, 512, solver);
  return {block_size,
          workload.solution.iterations,
          workload.solution.operator_applications,
          workload.trace.stats().total_bytes,
          workload.solution.converged,
          workload.solution.eigenvalues.empty() ? 0.0 : workload.solution.eigenvalues[0]};
}

}  // namespace

int main(int argc, char** argv) {
  bench::Bench bench(argc, argv, bench::Flags::kNone);
  std::map<std::size_t, SweepPoint> points;
  for (std::size_t block : {4u, 8u, 12u, 16u}) {
    bench.add("lobpcg/block" + std::to_string(block),
              [&points, block] { points.insert_or_assign(block, run_point(block)); });
  }
  return bench.finish([&] {
    std::printf("\n== Ablation: LOBPCG block size vs I/O volume ==\n");
    Table table({"Block", "Iterations", "H applications", "I/O volume", "Converged",
                 "lambda_0"});
    for (const auto& [block, point] : points) {
      table.add_row({std::to_string(point.block_size), std::to_string(point.iterations),
                     std::to_string(point.applications),
                     human_bytes(point.io_bytes.value()), point.converged ? "yes" : "no",
                     format("%.6f", point.lowest)});
    }
    table.print();
    std::printf(
        "\nEach application streams the full Hamiltonian from storage, so the block\n"
        "size dials the OoC I/O bill directly — the Psi width of 10-20 the paper\n"
        "quotes balances this against per-iteration convergence.\n");
  });
}
