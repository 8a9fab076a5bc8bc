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
//
// Several clients may share the one device and its links: the Carver
// ratio of Figure 3 (40 CNs to 10 IONs) puts about four OoC clients
// behind each ION SSD. Each client replays its own copy of the trace
// through its own file system and flow-control windows, on its own
// region of the device; the engine always issues the next device request
// of the client that can issue earliest.
#pragma once

#include <memory>
#include <vector>

#include "cluster/experiment.hpp"
#include "cluster/window.hpp"
#include "fs/filesystem.hpp"
#include "interconnect/link.hpp"
#include "trace/trace.hpp"

namespace nvmooc {

/// The I/O path one client replays through, mounted on a dataset of
/// `extent` bytes: UFS sized to the device, or the configured file system.
std::unique_ptr<IoPath> mount_io_path(const ExperimentConfig& config, Bytes extent);

// One engine drives one modelled device end to end (device, links, the
// clients' FS); nothing in it is shared with other engines. The sweep
// binaries run their engines one after another; concurrent engines on a
// ThreadPool match that byte for byte
// (ConcurrentExperiments.PoolSweepMatchesSerialByteForByte).
class ReplayEngine {
 public:
  /// `clients` compute nodes (at least one) share the device and links.
  explicit ReplayEngine(const ExperimentConfig& config, unsigned clients = 1);

  /// Replays the trace once per client; call once per engine instance.
  ExperimentResult run(const Trace& trace);

  Ssd& ssd() { return *ssd_; }

 private:
  /// One compute node: its I/O path, flow control and place in the trace.
  struct Client {
    std::unique_ptr<IoPath> path;
    Window device_window{Bytes{}};
    Window rpc_window{Bytes{}};
    Time cpu_free;
    Time barrier_gate;
    Time all_done;
    /// Application payload delivered; short of the trace only on abort.
    Bytes completed_payload;
    std::size_t posix = 0;            ///< Trace index of the open POSIX request.
    std::vector<BlockRequest> batch;  ///< Its device requests.
    std::size_t next = 0;             ///< The next of them to issue.
  };

  ExperimentConfig config_;
  std::unique_ptr<Ssd> ssd_;
  std::vector<Client> clients_;
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

struct MultiClientResult {
  std::string name;
  NvmType media = NvmType::kSlc;
  unsigned clients = 1;

  Time makespan;  ///< Until the last client finishes.
  Bytes total_bytes;
  /// Aggregate delivered bandwidth across clients.
  double aggregate_mbps = 0.0;
  /// Mean per-client bandwidth (each client's bytes over the makespan of
  /// that client's own stream).
  double per_client_mbps = 0.0;
  double worst_client_mbps = 0.0;
};

/// Replays `clients` copies of `trace` (one stream per compute node).
/// ION-local configs share device+links; compute-local configs get a
/// private stack per client (each CN has its own SSD).
MultiClientResult run_multi_client(const ExperimentConfig& config, const Trace& trace,
                                   unsigned clients);

}  // namespace nvmooc
