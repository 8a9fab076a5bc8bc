// Experiment configurations (the rows of Table 2) and the result record
// every figure of the evaluation is derived from.
#pragma once

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "check/audit.hpp"
#include "fs/filesystem.hpp"
#include "interconnect/network.hpp"
#include "interconnect/pcie.hpp"
#include "nvm/bus.hpp"
#include "obs/host_profiler.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "ssd/ssd.hpp"

namespace nvmooc {

enum class StorageLocation { kIonLocal, kComputeLocal };

struct ExperimentConfig {
  std::string name;  ///< e.g. "ION-GPFS", "CNL-UFS", "CNL-NATIVE-16".
  StorageLocation location = StorageLocation::kComputeLocal;
  NvmType media = NvmType::kSlc;

  /// I/O path: UFS bypasses the traditional stack.
  bool use_ufs = false;
  FsBehavior fs;  ///< Used when !use_ufs.

  /// Device host interface (PCIe, possibly bridged).
  LinkConfig host_link = bridged_pcie2(8);
  /// NVM-side channel bus (ONFi SDR vs future DDR).
  BusConfig nvm_bus = onfi3_sdr_bus();
  /// CN -> ION network path; only used for kIonLocal.
  NetworkPathConfig network = ion_gpfs_path();

  SsdGeometry geometry = paper_geometry();
  ControllerConfig controller;
  FtlConfig ftl;
  /// Fault injection (off by default). The ECC/retry ladder shape rides
  /// in `controller.ecc`.
  FaultConfig fault;
};

struct ExperimentResult {
  std::string name;
  NvmType media = NvmType::kSlc;

  Time makespan;
  /// When each client's last request completed (ReplayEngine's clients,
  /// in order); one entry for a single-client replay. Not serialised.
  std::vector<Time> client_makespans;
  Bytes payload_bytes;
  Bytes internal_bytes;
  std::uint64_t device_requests = 0;
  std::uint64_t transactions = 0;

  double achieved_mbps = 0.0;   ///< Figure 7a / 8a.
  double remaining_mbps = 0.0;  ///< Figure 7b / 8b.

  double channel_utilization = 0.0;  ///< Figure 9a (fraction 0-1).
  double package_utilization = 0.0;  ///< Figure 9b.

  /// Application-observed read latency (ready-to-completion), µs: the
  /// full quantile summary, serialised like every other log-histogram.
  obs::HistogramSummary read_latency;

  /// Figure 10a/10c: fractions over the six phases, summing to 1.
  std::array<double, kPhaseCount> phase_fraction{};
  /// Figure 10b/10d: fraction of request bytes served at each PAL.
  std::array<double, 4> pal_fraction{};

  WearSummary wear;
  FtlStats ftl;
  /// Raw device accounting (resource-seconds per op etc.) for energy and
  /// deeper post-processing.
  ControllerStats controller;
  /// End-to-end reliability accounting: sense-level counters from the
  /// controller, bad-block totals from the FTL, degraded-mode recovery
  /// from the engine. All zero when fault injection is off.
  ReliabilityStats reliability;

  /// Always-on tail-latency decomposition: per-stage quantile digests of
  /// the issue -> queue-wait -> grant -> dispatch -> bus -> media ->
  /// ECC-retry -> completion chain (stage mapping documented in
  /// obs/latency.hpp), plus read/write totals. Serialised by to_json()
  /// under "latency".
  obs::LatencyBreakdown latency;

  /// Per-request distribution of each Figure-10 phase's critical-path
  /// time, in µs (e.g. phase_wait[kChannelContention] answers "how long
  /// did a request typically sit in channel queues").
  std::array<obs::HistogramSummary, kPhaseCount> phase_wait{};
  /// Outstanding device-window bytes over sim time: one sample per
  /// request admission, decimated to a bounded outline. With several
  /// clients only the first one's window is sampled: its admissions
  /// never go back in time, and every client replays the same trace.
  std::vector<std::pair<Time, double>> queue_depth;
  /// Snapshot of the active metrics registry at the end of the replay;
  /// empty unless a registry was installed (--metrics-out).
  std::vector<obs::MetricSnapshot> metrics;

  /// Invariant-audit verdict (conservation/causality/occupancy/FTL);
  /// enabled only when a check::AuditSession was installed for the
  /// replay (--audit on the CLI surfaces). Serialised by to_json() under
  /// "audit" when enabled, omitted otherwise.
  check::AuditReport audit;

  /// Critical-path blame + utilization timelines; enabled only when an
  /// obs::ProfileSession was installed for the replay (--profile on the
  /// CLI surfaces). Serialised by to_json() under "profile" when
  /// enabled, omitted otherwise — the unprofiled schema is unchanged.
  obs::ProfileReport profile;

  /// Host-side telemetry (events/sec speedometer, wall-time attribution,
  /// memory accounting); enabled only when an obs::HostSession was
  /// installed for the replay (--speed-report on the CLI surfaces).
  /// Serialised by to_json() under "host" when enabled, omitted
  /// otherwise — the schema without the flag is unchanged.
  obs::HostReport host;

  /// Machine-readable export of everything above (schema documented in
  /// docs/OBSERVABILITY.md; stable field names, versioned).
  std::string to_json() const;
};

}  // namespace nvmooc
