// Replay engine: runs a POSIX-level trace through one experiment
// configuration end to end and produces the figures' quantities.
//
// Flow control mirrors the real stack: the I/O path keeps at most
// `readahead` bytes outstanding per stream, each device-request
// submission costs serialized host CPU time plus added latency, barrier
// requests (journal commits, synchronous metadata) drain the pipeline,
// and completed data still has to cross the host link (CNL) or the
// ION PCIe link *and* the cluster network (ION-local) before the
// application sees it.
#pragma once

#include <memory>

#include "cluster/experiment.hpp"
#include "interconnect/link.hpp"
#include "trace/trace.hpp"
#include "ufs/ufs.hpp"

namespace nvmooc {

// One engine drives one modelled node end to end (device, links, FS);
// nothing in it is shared with other engines, so sweep workers may run
// engines concurrently (see bench_common).
class ReplayEngine {
 public:
  explicit ReplayEngine(const ExperimentConfig& config);

  /// Replays the trace; call once per engine instance.
  ExperimentResult run(const Trace& trace);

  Ssd& ssd() { return *ssd_; }
  IoPath& io_path() { return *path_; }

 private:
  ExperimentConfig config_;
  std::unique_ptr<Ssd> ssd_;
  std::unique_ptr<FileSystemModel> fs_;
  std::unique_ptr<UnifiedFileSystem> ufs_;
  IoPath* path_ = nullptr;
  std::unique_ptr<DmaEngine> host_dma_;
  std::unique_ptr<DmaEngine> network_dma_;
  /// Degraded-mode recovery wire for compute-local configurations under
  /// fault injection: uncorrectable data is re-fetched from the replica
  /// that stayed on the ION (paper Section 3.1 keeps the ION copy as the
  /// resilience tier). Null otherwise.
  std::unique_ptr<DmaEngine> degraded_dma_;
};

/// Convenience: build an engine, synthesize nothing, replay `trace`.
ExperimentResult run_experiment(const ExperimentConfig& config, const Trace& trace);

}  // namespace nvmooc
