// Figure 6 — "Block access patterns from the beginning of our OoC workload
// trace from the perspective of the POSIX block access pattern at the
// compute node (bottom) and the sub-GPFS block access pattern at the IONs
// (top)."
//
// Captures a real LOBPCG run's POSIX trace, pushes it through the GPFS
// model, and characterises both address sequences: the POSIX stream is
// nearly perfectly sequential; GPFS striping scrambles it.
#include <optional>

#include "bench_common.hpp"
#include "common/string_util.hpp"
#include "fs/presets.hpp"

namespace {

using namespace nvmooc;

CapturedWorkload make_workload() {
  HamiltonianParams h_params;
  h_params.dimension = 24000;
  h_params.band_width = 64;
  h_params.band_fill = 0.35;
  h_params.seed = 2013;
  LobpcgOptions solver;
  solver.block_size = 8;
  // Trace-capture accuracy: the I/O pattern is identical at any
  // tolerance; 5e-3 converges well before the clustered tail of the
  // spectrum slows the block down.
  solver.tolerance = 5e-3;
  solver.max_iterations = 150;
  return capture_ooc_trace(h_params, 1024, solver);
}

Trace through_gpfs(const Trace& posix) {
  FileSystemModel gpfs(gpfs_behavior());
  gpfs.mount(posix.extent());
  Trace device;
  for (const PosixRequest& request : posix.requests()) {
    for (const BlockRequest& block : gpfs.submit(request)) {
      if (!block.internal) device.add(block.op, block.offset, block.size);
    }
  }
  return device;
}

void print_pattern(const char* label, const Trace& trace, std::size_t count) {
  std::printf("\n-- %s: first %zu accesses (offset MiB, size KiB) --\n", label, count);
  std::string line;
  for (std::size_t i = 0; i < std::min(count, trace.size()); ++i) {
    line += format("%7.1f/%-5llu", static_cast<double>(trace[i].offset) / static_cast<double>(MiB),
                   static_cast<unsigned long long>(trace[i].size / KiB));
    if ((i + 1) % 6 == 0) {
      std::printf("%s\n", line.c_str());
      line.clear();
    }
  }
  if (!line.empty()) std::printf("%s\n", line.c_str());
}

/// Prints both access patterns and the characterisation table.
void report(const CapturedWorkload& workload, const Trace& device) {
  print_pattern("POSIX at the compute node (Figure 6 bottom)", workload.trace, 24);
  print_pattern("Sub-GPFS at the ION (Figure 6 top)", device, 24);

  const TraceStats posix_stats = workload.trace.stats();
  const TraceStats device_stats = device.stats();
  std::printf("\n== Figure 6 pattern characterisation ==\n");
  Table table({"Level", "Requests", "Mean size", "Sequentiality", "Read fraction"});
  table.add_row({"POSIX (CN)", with_commas(static_cast<long long>(posix_stats.requests)),
                 human_bytes(static_cast<unsigned long long>(posix_stats.mean_request)),
                 format("%.3f", posix_stats.sequentiality),
                 format("%.3f", posix_stats.read_fraction)});
  table.add_row({"sub-GPFS (ION)", with_commas(static_cast<long long>(device_stats.requests)),
                 human_bytes(static_cast<unsigned long long>(device_stats.mean_request)),
                 format("%.3f", device_stats.sequentiality),
                 format("%.3f", device_stats.read_fraction)});
  table.print();

  std::printf(
      "\nGPFS divides what was previously largely sequential (paper Section 4.2):\n"
      "striping deteriorates performance for NVMs that want all dies engaged at\n"
      "once. Solver converged=%d, eigenvalue[0]=%.6f, %zu operator applications.\n",
      workload.solution.converged ? 1 : 0,
      workload.solution.eigenvalues.empty() ? 0.0 : workload.solution.eigenvalues[0],
      workload.solution.operator_applications);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Bench bench(argc, argv, bench::Flags::kNone);
  std::optional<CapturedWorkload> workload;
  Trace device;
  bench.add("capture_and_stripe", [&] {
    workload = make_workload();
    device = through_gpfs(workload->trace);
  });
  return bench.finish([&] {
    if (workload) report(*workload, device);
  });
}
