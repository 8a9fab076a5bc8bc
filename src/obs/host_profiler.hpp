// Host-side simulator telemetry: where the *wall-clock* time and host
// memory of a replay go — the counterpart of every other layer in
// src/obs, which measures simulated time.
//
// The profiler is a probe subscriber (common/probe.hpp) like every other
// instrument; no model layer calls it. It never mutates simulation
// state, so makespans stay bit-identical with the speed report on or
// off. It keeps four instruments:
//
//  * an events/sec speedometer: it counts the simulation events the host
//    processed (POSIX requests, device requests, timeline reservations);
//    the report divides by elapsed wall time;
//  * wall-clock attribution: at each event it receives it reads the clock
//    once and bills the time since the previous event to the subsystem
//    whose work that event closes (HostSubsystem), so the buckets
//    partition the replay's wall time. The other instruments' hooks run
//    before this one's and bill with the event that called them;
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
/// is slow", not "which resource bounded the simulated run". Each is
/// billed at the probe event that closes its work.
enum class HostSubsystem : std::uint8_t {
  kEngine = 0,        ///< Replay loop, folds, result derivation.
  kIoPath = 1,        ///< FS/UFS request expansion (closed by on_posix).
  kController = 2,    ///< Controller, FTL, media and timelines (on_media_end).
  kInterconnect = 3,  ///< DMA/link/network transfer model (each kLink interval).
};
inline constexpr int kHostSubsystemCount = 4;

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
  double wall_seconds = 0.0;  ///< Wall time billed to the bucket.
  std::uint64_t enters = 0;   ///< Events that billed it.
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
  /// Every bucket, sorted by wall time descending. Their wall_seconds
  /// sum to `wall_seconds`.
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

  std::uint64_t events_total() const;

  /// Finalises the measurement into a report. `sim_makespan` is the
  /// replay's end time. The time since the last event bills to the
  /// engine, on the same clock read that closes `wall_seconds`.
  HostReport report(Time sim_makespan) const;

  // Probe subscription. Every timeline reservation of positive duration
  // is reported as one interval that occupies something (the RPC window
  // and channel stalls occupy nothing); only link transfers read the
  // clock, so controller steps cost a count.
  void on_interval(const probe::Interval& interval) override {
    if (interval.end > interval.start) count(HostEvent::kTimelineReservation);
    if (interval.resource == probe::Resource::kLink) bill(HostSubsystem::kInterconnect);
  }
  /// Starts a new report: resets every tally, restarts the timeline
  /// allocation high-water mark, and records the replay's size so
  /// heartbeats can report % complete and an ETA.
  void on_replay_begin(std::uint64_t posix_requests) override;
  void on_posix(const probe::Posix& /*posix*/) override {
    count(HostEvent::kPosixRequest);
    bill(HostSubsystem::kIoPath);
  }
  /// One application request finished at simulated time `all_done`;
  /// emits the heartbeat when the period elapsed.
  void on_progress(Time all_done) override;
  void on_request_open(const probe::RequestOpen& /*request*/) override {
    count(HostEvent::kDeviceRequest);
    bill(HostSubsystem::kEngine);
  }
  void on_request_close(const probe::RequestClose& /*request*/) override {
    bill(HostSubsystem::kEngine);
  }
  void on_media_begin(Bytes /*expected*/, bool /*internal*/) override {
    bill(HostSubsystem::kEngine);
  }
  void on_media_end(const probe::MediaDone& /*done*/) override {
    bill(HostSubsystem::kController);
  }

 private:
  void count(HostEvent event) { ++events_[static_cast<int>(event)]; }
  /// Bills the wall time since the previous event to `subsystem` and
  /// makes this event the previous one.
  void bill(HostSubsystem subsystem);
  void heartbeat(Time now_wall, Time sim_now);

  Options options_;
  Time start_wall_;            ///< wallclock ns at replay begin.
  Time last_wall_;             ///< wallclock ns of the previous event.
  Time heartbeat_interval_;    ///< wallclock ns; 0 = every progress call.
  Time next_heartbeat_;
  std::uint64_t total_requests_ = 0;
  std::uint64_t completed_requests_ = 0;
  std::uint64_t heartbeats_ = 0;
  std::array<std::uint64_t, kHostEventCount> events_{};
  std::array<Time, kHostSubsystemCount> billed_{};  ///< wall ns.
  std::array<std::uint64_t, kHostSubsystemCount> bills_{};
  AllocTally timeline_base_;
};

/// The calling thread's active host profiler, or null.
inline HostProfiler* host_profiler() {
  return static_cast<HostProfiler*>(probe::slot(probe::Slot::kHost));
}

/// RAII install of a host profiler on the constructing thread (the
/// --speed-report CLI surface builds one per replay; mirrors
/// ProfileSession / check::AuditSession).
class HostSession : public probe::Session<HostProfiler, probe::Slot::kHost> {
 public:
  using Session::Session;
  HostProfiler& profiler() { return instrument_; }
};

}  // namespace nvmooc::obs
