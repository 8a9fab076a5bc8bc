#include "interconnect/network.hpp"

#include <algorithm>

namespace nvmooc {

LinkConfig infiniband_qdr4x() {
  LinkConfig link;
  link.name = "infiniband-qdr-4x";
  link.gigatransfers_per_sec = 10.0;
  link.lanes = 4;
  link.encoding = 8.0 / 10.0;  // QDR still uses 8b/10b (FDR moved to 64b/66b).
  link.request_latency = 10 * kMicrosecond;
  return link;
}

NetworkPathConfig ion_gpfs_path() {
  NetworkPathConfig path;
  path.wire = infiniband_qdr4x();
  // Calibrated against the paper's observation that the ION-GPFS setup
  // sustains well under the wire rate: GPFS token/lock management, the
  // NSD server hop, and kernel crossings cost hundreds of microseconds
  // per stripe-chunk RPC, and the client keeps only a couple of RPCs in
  // flight per stream.
  path.rpc_overhead = 340 * kMicrosecond;
  path.max_concurrent_rpcs = 2;
  return path;
}

double network_path_throughput(const NetworkPathConfig& path, Bytes chunk_bytes) {
  if (chunk_bytes == Bytes{}) return 0.0;
  const double wire_seconds = static_cast<double>(chunk_bytes) / path.wire.byte_rate();
  const double per_rpc_seconds = wire_seconds + to_seconds(path.rpc_overhead);
  const double pipelined =
      static_cast<double>(path.max_concurrent_rpcs) * static_cast<double>(chunk_bytes) /
      per_rpc_seconds;
  // The wire itself is the other ceiling.
  return std::min(pipelined, path.wire.byte_rate());
}

}  // namespace nvmooc
