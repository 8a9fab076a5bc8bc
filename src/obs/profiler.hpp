// Causal event-graph profiler: records, per replayed request, the
// contiguous chain of time segments it spent in each layer of the I/O
// stack (engine flow control, CPU serialisation, FS/UFS software,
// network RPC, interconnect links, channel buses, flash buses, die
// planes) plus the dependency gates between requests (CPU pipelining,
// barriers, whole-trace drains, application think time). From those it
// extracts the whole-run critical path — the single backward chain of
// segments from the makespan to t=0 — and produces a blame report: how
// many picoseconds of the makespan each layer/resource is responsible
// for. This is the run-level generalisation of the per-request Figure-10
// phase accounting in src/ssd/request.hpp: instead of "what did a
// request wait on, on average", it answers "what actually bounded the
// run".
//
// The profiler is a probe subscriber (common/probe.hpp), installed by a
// ProfileSession (or an InstrumentSet with --profile), and the probe is
// its only input. It builds each request's chain from the probe stream:
// the engine's request open/close events mint the request, record its
// dependency gates and its host-side segments; controller steps, link
// transfers and the RPC window add the device-side occupancy to the
// request the engine has open; named link transfers also feed the
// utilization sampler.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/probe.hpp"
#include "common/units.hpp"

namespace nvmooc::obs {

/// What a critical-path (or busy) segment was doing. Determines the
/// blame-report layer and whether the segment counts as resource
/// occupancy for the utilization timelines.
enum class PathKind : std::uint8_t {
  kEngineWindow = 0,    ///< Flow-control window admission wait.
  kEngineCpu = 1,       ///< Submission-core serialisation.
  kIoPathSoftware = 2,  ///< FS/UFS per-request software latency.
  kNetworkRpc = 3,      ///< Parallel-FS RPC concurrency window.
  kLinkWait = 4,        ///< DMA protocol latency + link queueing.
  kLinkBusy = 5,        ///< Wire time on a host/network link.
  kChannelWait = 6,     ///< Channel-bus contention (incl. stalls).
  kChannelBus = 7,      ///< Command/data cycles on the channel bus.
  kFlashBusWait = 8,    ///< Package-port contention.
  kFlashBus = 9,        ///< Register<->pads transfer on the package port.
  kCellWait = 10,       ///< Plane contention.
  kCellBusy = 11,       ///< Cell activation (incl. ECC retry senses).
  kApplication = 12,    ///< Trace think time (not_before gaps).
  kUnattributed = 13,   ///< Walk fallback; a nonzero total is a bug.
};
inline constexpr int kPathKindCount = 14;

/// Blame-report layer for a PathKind ("engine", "io_path", "network",
/// "interconnect", "controller.channel", "controller.flash_bus",
/// "media.cell", "application", "unattributed").
const char* path_layer(PathKind kind);

/// Why a request's `ready` time was what it was: the dependency-edge
/// taxonomy between requests.
enum class GateKind : std::uint8_t {
  kCpu = 0,      ///< Predecessor's submission-core release (pipelining).
  kBarrier = 1,  ///< Completion of the last barrier request.
  kDrain = 2,    ///< Whole-trace drain (this request is a barrier).
  kApp = 3,      ///< Application not_before (prefetch think time).
};

struct GateCandidate {
  Time at;                  ///< The time this dependency released.
  GateKind kind = GateKind::kApp;
  std::uint64_t pred = 0;   ///< Releasing request id; 0 = none (kApp).
};

/// One critical-path blame bucket: time the makespan spent on one
/// resource, through one kind of occupancy.
struct BlameEntry {
  std::string layer;     ///< path_layer() of the kind.
  std::string kind;      ///< Machine key, e.g. "channel_bus".
  std::string resource;  ///< e.g. "ssd.ch3", "link.host", "engine.cpu".
  Time time;             ///< Exact critical-path picoseconds.
  std::uint64_t hops = 0;  ///< Walk steps folded into this bucket.
};

/// One windowed utilization (or queue-depth) series.
struct UtilizationSeries {
  std::string resource;  ///< e.g. "ssd.ch0", "link.host", "ssd.inflight".
  std::string kind;      ///< "busy_fraction" | "queue_depth".
  std::vector<std::pair<Time, double>> points;  ///< (window start, value).
};

/// Everything the profiler derives from one replay. Carried in
/// ExperimentResult and serialised under "profile" when enabled.
struct ProfileReport {
  bool enabled = false;
  Time makespan;
  /// Sum over blame[] — the self-check invariant is attributed ==
  /// makespan, exact in integer picoseconds.
  Time attributed;
  /// Critical-path time the walk could not map to a recorded segment
  /// (also present in blame[] under layer "unattributed"). Always 0 when
  /// every hook site holds its contiguity contract.
  Time unattributed;
  std::uint64_t requests = 0;
  std::uint64_t segments = 0;
  std::uint64_t gates = 0;
  /// Device-side edges that arrived with no open request (dropped).
  std::uint64_t dropped_edges = 0;
  std::uint64_t critical_path_hops = 0;
  /// I/O-path fan-out totals: device requests the FS/UFS produced for
  /// the application stream, and the internal (metadata/journal) traffic
  /// it added on top.
  std::uint64_t io_path_device_requests = 0;
  std::uint64_t io_path_internal_requests = 0;
  Time window;  ///< Utilization window width.
  std::vector<BlameEntry> blame;  ///< Sorted by time desc, then names.
  std::vector<UtilizationSeries> utilization;
  /// Human-readable blame table + utilization digest.
  std::string summary() const;
};

class Profiler final : public probe::Subscriber {
 public:
  Profiler();

  /// Extracts the critical path and utilization timelines. `makespan` is
  /// the replay's all-done time; `windows` is the timeline resolution.
  ProfileReport report(Time makespan, std::uint32_t windows = 64) const;

  // --- Probe subscription: the profiler's only input ---------------------
  /// Controller steps, link transfers and the RPC window add their wait
  /// and busy segments to the open request; with none open they are
  /// dropped and counted. Named link transfers also feed the utilization
  /// sampler, open request or not.
  void on_interval(const probe::Interval& interval) override;
  void on_replay_begin(std::uint64_t posix_requests) override;
  /// I/O-path expansion: one application request fanned out into data
  /// and internal device requests.
  void on_posix(const probe::Posix& posix) override;
  /// Opens a request and records every dependency candidate that went
  /// into its ready time.
  void on_request_open(const probe::RequestOpen& request) override;
  /// Adds the host-side segments (window, CPU, I/O-path software) and
  /// seals the request.
  void on_request_close(const probe::RequestClose& request) override;

 private:
  struct Segment {
    Time start;
    Time end;
    std::uint32_t resource = 0;
    PathKind kind = PathKind::kUnattributed;
  };
  struct RequestRecord {
    Time ready;
    Time issue;
    Time completion;
    Time media_begin;
    Time media_end;
    bool complete = false;
    std::vector<Segment> segments;
    std::vector<GateCandidate> gates;
  };

  /// Resource-name interning: segments carry ids, not strings, so the
  /// per-segment cost is independent of name length.
  std::uint32_t intern(const std::string& name);
  /// Appends one segment to the open request; empty ones are dropped,
  /// and with no request open the edge is dropped and counted.
  void segment(PathKind kind, std::uint32_t resource, Time start, Time end);

  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> name_ids_;
  std::vector<RequestRecord> requests_;
  /// 1-based id of the open request; 0 when none is open.
  std::uint64_t open_request_ = 0;
  std::uint64_t segment_count_ = 0;
  std::uint64_t gate_count_ = 0;
  std::uint64_t dropped_edges_ = 0;
  std::uint64_t expanded_device_requests_ = 0;
  std::uint64_t expanded_internal_requests_ = 0;
  /// Busy intervals of named links, keyed by interned label.
  std::map<std::uint32_t, std::vector<std::pair<Time, Time>>> link_intervals_;

  /// Interned id of the controller resource a step ran on.
  std::uint32_t site_id(probe::Resource resource, const probe::Site& site);

  std::uint32_t window_id_ = 0;
  std::uint32_t cpu_id_ = 0;
  std::uint32_t rpc_id_ = 0;
  /// Controller resource ids, keyed by packed (resource, site).
  std::unordered_map<std::uint64_t, std::uint32_t> site_ids_;
  // The open request's own facts, and which request released each gate.
  bool open_barrier_ = false;
  Time open_drain_gate_;
  std::uint64_t cpu_pred_ = 0;
  std::uint64_t barrier_pred_ = 0;
  std::uint64_t drain_pred_ = 0;
};

/// The calling thread's active profiler, or null.
inline Profiler* profiler() {
  return static_cast<Profiler*>(probe::slot(probe::Slot::kProfile));
}

/// RAII install of a profiler on the constructing thread (the --profile
/// CLI surface builds one per replay; mirrors check::AuditSession).
class ProfileSession : public probe::Session<Profiler, probe::Slot::kProfile> {
 public:
  using Session::Session;
  Profiler& profiler() { return instrument_; }
};

}  // namespace nvmooc::obs
