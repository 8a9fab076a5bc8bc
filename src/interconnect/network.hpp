// Cluster network models: the compute-node-to-ION path of the ION-local
// architecture (Figure 3) plus the Fibre Channel generations used in the
// Figure 1 trend comparison.
#pragma once

#include "interconnect/link.hpp"

namespace nvmooc {

/// A storage-over-network path: a wire plus the parallel-file-system
/// client/server software costs that dominate small transfers.
struct NetworkPathConfig {
  LinkConfig wire;
  /// Client+server software cost per RPC (request processing, locking,
  /// buffer management in the parallel FS stack).
  Time rpc_overhead = 250 * kMicrosecond;
  /// RPC pipeline width the client sustains towards one server.
  unsigned max_concurrent_rpcs = 2;
};

/// QDR 4X InfiniBand (Carver's fabric): 10 GT/s/lane, 4 lanes, 8b/10b.
LinkConfig infiniband_qdr4x();

/// The full CN -> ION -> GPFS path used by the ION-GPFS configuration.
NetworkPathConfig ion_gpfs_path();

/// Models the network path's sustained throughput for a stream of
/// `chunk_bytes` RPCs: pipeline of `max_concurrent_rpcs`, each costing
/// rpc_overhead + wire time. Bytes per second.
double network_path_throughput(const NetworkPathConfig& path, Bytes chunk_bytes);

}  // namespace nvmooc
