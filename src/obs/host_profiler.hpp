// Host-side simulator telemetry: where the *wall-clock* time and host
// memory of a replay go — the counterpart of every other layer in
// src/obs, which measures simulated time.
//
// Four instruments, none of which ever mutates simulation state, so
// makespans stay bit-identical with the speed report on or off:
//
//  * an events/sec speedometer: the profiler subscribes to the probe
//    (common/probe.hpp) and counts the simulation events the host
//    processed (POSIX requests, device requests, timeline reservations);
//    the report divides by elapsed wall time;
//  * scoped wall-clock attribution: RAII HostSection guards partition
//    host time across subsystems (engine, I/O path, controller,
//    timeline, interconnect, reliability, obs overhead) with self-time
//    semantics — a nested section's time is subtracted from its parent;
//  * memory accounting: peak RSS from the OS plus the counting-allocator
//    tally (common/alloc_counter.hpp) charged by the timeline interval
//    bookkeeping;
//  * a progress heartbeat: a structured log line every N wall-seconds
//    (% requests complete, sim-time, events/sec, ETA) for long runs,
//    mirrored as Perfetto wall-track counters when a tracer is active.
//
// All wall reads go through wallclock::now_ns() (common/wallclock.hpp),
// the repo's single steady-clock-backed helper.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/alloc_counter.hpp"
#include "common/probe.hpp"
#include "common/units.hpp"

namespace nvmooc::obs {

/// Host-time attribution buckets. Coarser than the simulated-time blame
/// taxonomy (profiler.hpp): these answer "which part of the *program*
/// is slow", not "which resource bounded the simulated run".
enum class HostSubsystem : std::uint8_t {
  kEngine = 0,        ///< Replay loop self-time (flow control, accounting).
  kIoPath = 1,        ///< FS/UFS request expansion.
  kController = 2,    ///< SSD controller + FTL + media model.
  kTimeline = 3,      ///< Reservation timeline bookkeeping.
  kInterconnect = 4,  ///< DMA/link/network transfer model.
  kReliability = 5,   ///< Degraded-mode recovery handling.
  kObs = 6,           ///< Observability overhead (span/metric emission).
};
inline constexpr int kHostSubsystemCount = 7;

const char* host_subsystem_name(HostSubsystem subsystem);

/// What the speedometer counts. One "event" is one unit of host work on
/// the simulation: an application request, a device request through the
/// engine, or a timeline reservation.
enum class HostEvent : std::uint8_t {
  kPosixRequest = 0,
  kDeviceRequest = 1,
  kTimelineReservation = 2,
};
inline constexpr int kHostEventCount = 3;

/// Stable snake_case key for reports/JSON ("device_requests", ...).
const char* host_event_name(HostEvent event);

struct HostSectionStat {
  std::string name;
  double wall_seconds = 0.0;  ///< Self time (children subtracted).
  std::uint64_t enters = 0;
};

struct HostAllocStat {
  std::uint64_t allocated_bytes = 0;
  std::uint64_t allocations = 0;
  std::uint64_t peak_live_bytes = 0;
};

/// Everything the host profiler measured for one replay. Carried in
/// ExperimentResult and serialised under "host" when enabled — the
/// schema without --speed-report is unchanged, like "audit"/"profile".
struct HostReport {
  bool enabled = false;
  double wall_seconds = 0.0;
  Time sim_time;  ///< The replay's makespan (simulated picoseconds).
  std::uint64_t events_total = 0;
  double events_per_sec = 0.0;
  /// Simulated seconds advanced per wall-clock second (the "speedup"
  /// over real time; >1 means the simulator outruns its subject).
  double sim_time_per_wall_second = 0.0;
  std::array<std::uint64_t, kHostEventCount> events{};
  std::uint64_t requests_total = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t peak_rss_bytes = 0;
  HostAllocStat timeline_alloc;
  /// Nonzero buckets only, sorted by self time descending.
  std::vector<HostSectionStat> sections;

  /// Human-readable speedometer + attribution digest.
  std::string summary() const;
};

class HostProfiler final : public probe::Subscriber {
 public:
  struct Options {
    /// Heartbeat period in wall seconds; <= 0 logs on every progress
    /// call (useful for tests/CI artifacts).
    double heartbeat_sec = 5.0;
  };

  // Not a default argument: a nested struct's member initializers are
  // not usable in the enclosing class's default arguments (incomplete
  // class context), so the no-options form is a separate constructor.
  HostProfiler();
  explicit HostProfiler(Options options);

  /// Speedometer tick; hook sites pass the category they processed.
  void count(HostEvent event, std::uint64_t n = 1) {
    events_[static_cast<int>(event)] += n;
  }

  // RAII surface is HostSection below; these are the raw hooks.
  void section_enter(HostSubsystem subsystem);
  void section_exit();

  std::uint64_t events_total() const;

  /// Finalises the measurement into a report. `sim_makespan` is the
  /// replay's end time.
  HostReport report(Time sim_makespan) const;

  // Probe subscription: the speedometer and the heartbeat. Every
  // timeline reservation of positive duration is reported as one
  // interval that occupies something; the RPC window and channel stalls
  // occupy nothing.
  void on_interval(const probe::Interval& interval) override {
    if (interval.end > interval.start) count(HostEvent::kTimelineReservation);
  }
  /// Records the replay's size so heartbeats can report % complete and
  /// an ETA, and snapshots the allocation tallies as the baseline.
  void on_replay_begin(std::uint64_t posix_requests) override;
  void on_posix(const probe::Posix& /*posix*/) override {
    count(HostEvent::kPosixRequest);
  }
  /// One application request finished at simulated time `all_done`.
  /// Cheap (one wall read); emits the heartbeat when the period elapsed.
  void on_progress(Time all_done) override;
  void on_request_open(const probe::RequestOpen& /*request*/) override {
    count(HostEvent::kDeviceRequest);
  }

 private:
  void heartbeat(Time now_wall, Time sim_now);

  Options options_;
  Time start_wall_;            ///< wallclock ns at construction.
  Time heartbeat_interval_;    ///< wallclock ns; 0 = every progress call.
  Time next_heartbeat_;
  std::uint64_t total_requests_ = 0;
  std::uint64_t completed_requests_ = 0;
  std::uint64_t heartbeats_ = 0;
  std::array<std::uint64_t, kHostEventCount> events_{};
  std::array<Time, kHostSubsystemCount> section_self_{};  ///< wall ns.
  std::array<std::uint64_t, kHostSubsystemCount> section_enters_{};
  struct Frame {
    HostSubsystem subsystem;
    Time start;  ///< wallclock ns.
    Time child;  ///< wall ns attributed to nested sections.
  };
  std::vector<Frame> stack_;
  std::array<AllocTally, kAllocDomainCount> alloc_base_{};
};

/// The calling thread's active host profiler, or null.
inline HostProfiler* host_profiler() {
  return static_cast<HostProfiler*>(probe::slot(probe::Slot::kHost));
}

/// RAII wall-time attribution scope. With no profiler installed the
/// constructor and destructor are a thread-local load and a branch.
class HostSection {
 public:
  explicit HostSection(HostSubsystem subsystem) : profiler_(host_profiler()) {
    if (profiler_ != nullptr) profiler_->section_enter(subsystem);
  }
  ~HostSection() {
    if (profiler_ != nullptr) profiler_->section_exit();
  }

  HostSection(const HostSection&) = delete;
  HostSection& operator=(const HostSection&) = delete;

 private:
  HostProfiler* profiler_;
};

/// RAII install of a host profiler on the constructing thread (the
/// --speed-report CLI surface builds one per replay; mirrors
/// ProfileSession / check::AuditSession).
class HostSession : public probe::Session<HostProfiler, probe::Slot::kHost> {
 public:
  using Session::Session;
  HostProfiler& profiler() { return instrument_; }
};

}  // namespace nvmooc::obs
