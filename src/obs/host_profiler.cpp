#include "obs/host_profiler.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.hpp"
#include "common/string_util.hpp"
#include "common/wallclock.hpp"
#include "obs/trace_recorder.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace nvmooc::obs {

namespace {

/// One "VmXXX: N kB" value from /proc/self/status; 0 when unavailable
/// (non-Linux, or the pseudo-file missing).
std::uint64_t proc_status_kb(const char* key) {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  std::uint64_t kb = 0;
  const std::size_t key_len = std::strlen(key);
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0 && line[key_len] == ':') {
      kb = std::strtoull(line + key_len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
#else
  (void)key;
  return 0;
#endif
}

std::uint64_t current_rss_bytes() { return proc_status_kb("VmRSS") * 1024; }

std::uint64_t peak_rss_bytes() {
  if (const std::uint64_t kb = proc_status_kb("VmHWM"); kb > 0) return kb * 1024;
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0 && usage.ru_maxrss > 0) {
    // Linux reports ru_maxrss in KiB, macOS in bytes.
#if defined(__APPLE__)
    return static_cast<std::uint64_t>(usage.ru_maxrss);
#else
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
#endif
  }
#endif
  return 0;
}

/// `base` is the tally at replay begin, whose high-water mark restarted
/// from its live bytes then.
HostAllocStat alloc_delta(const AllocTally& now, const AllocTally& base) {
  HostAllocStat stat;
  stat.allocated_bytes = now.allocated_bytes - base.allocated_bytes;
  stat.allocations = now.allocations - base.allocations;
  stat.peak_live_bytes = now.peak_live_bytes;
  return stat;
}

std::string format_bytes(double bytes) {
  if (bytes >= 1024.0 * 1024.0) return format("%.1f MiB", bytes / (1024.0 * 1024.0));
  if (bytes >= 1024.0) return format("%.1f KiB", bytes / 1024.0);
  return format("%.0f B", bytes);
}

}  // namespace

const char* host_event_name(HostEvent event) {
  switch (event) {
    case HostEvent::kPosixRequest: return "posix_requests";
    case HostEvent::kDeviceRequest: return "device_requests";
    case HostEvent::kTimelineReservation: return "timeline_reservations";
  }
  return "?";
}

const char* host_subsystem_name(HostSubsystem subsystem) {
  switch (subsystem) {
    case HostSubsystem::kEngine: return "engine";
    case HostSubsystem::kIoPath: return "io_path";
    case HostSubsystem::kController: return "controller";
    case HostSubsystem::kInterconnect: return "interconnect";
  }
  return "?";
}

HostProfiler::HostProfiler() : HostProfiler(Options{}) {}

HostProfiler::HostProfiler(Options options)
    : probe::Subscriber(probe::bit(probe::Kind::kInterval) | probe::bit(probe::Kind::kReplay) |
                        probe::bit(probe::Kind::kRequest) | probe::bit(probe::Kind::kMedia)),
      options_(options),
      start_wall_(wallclock::now_ns()),
      last_wall_(start_wall_) {
  const double sec = std::max(0.0, options_.heartbeat_sec);
  // Wall instants ride in Time with nanosecond units (wallclock.hpp):
  // convert through the sanctioned from_seconds() (picoseconds), then
  // rescale ps -> ns.
  heartbeat_interval_ = from_seconds(sec) / 1000;
  next_heartbeat_ = start_wall_ + heartbeat_interval_;
}

void HostProfiler::on_replay_begin(std::uint64_t posix_requests) {
  total_requests_ = posix_requests;
  completed_requests_ = 0;
  heartbeats_ = 0;
  events_ = {};
  billed_ = {};
  bills_ = {};
  // The tally's high-water mark lives as long as the thread; restart it
  // so this replay reports its own peak.
  AllocTally& timeline = alloc_tally(AllocDomain::kTimeline);
  timeline.peak_live_bytes = timeline.live_bytes;
  timeline_base_ = timeline;
  start_wall_ = wallclock::now_ns();
  last_wall_ = start_wall_;
  next_heartbeat_ = start_wall_ + heartbeat_interval_;
}

void HostProfiler::bill(HostSubsystem subsystem) {
  const Time now = wallclock::now_ns();
  billed_[static_cast<int>(subsystem)] += now - last_wall_;
  ++bills_[static_cast<int>(subsystem)];
  last_wall_ = now;
}

void HostProfiler::on_progress(Time all_done) {
  ++completed_requests_;
  bill(HostSubsystem::kEngine);
  if (last_wall_ >= next_heartbeat_) heartbeat(last_wall_, all_done);
}

void HostProfiler::heartbeat(Time now_wall, Time sim_now) {
  ++heartbeats_;
  next_heartbeat_ = now_wall + heartbeat_interval_;
  const double elapsed = wallclock::to_seconds(now_wall - start_wall_);
  const std::uint64_t events = events_total();
  const double rate = elapsed > 0.0 ? static_cast<double>(events) / elapsed : 0.0;
  const double pct =
      total_requests_ > 0
          ? 100.0 * static_cast<double>(completed_requests_) /
                static_cast<double>(total_requests_)
          : 0.0;
  const double eta =
      completed_requests_ > 0 && total_requests_ > completed_requests_
          ? elapsed *
                static_cast<double>(total_requests_ - completed_requests_) /
                static_cast<double>(completed_requests_)
          : 0.0;
  NVMOOC_LOG_INFO(
      "heartbeat n=%llu wall_s=%.1f requests=%llu/%llu pct=%.1f sim_ms=%.3f "
      "events=%llu events_per_sec=%.0f eta_s=%.1f",
      static_cast<unsigned long long>(heartbeats_), elapsed,
      static_cast<unsigned long long>(completed_requests_),
      static_cast<unsigned long long>(total_requests_), pct,
      static_cast<double>(sim_now) / static_cast<double>(kMillisecond),
      static_cast<unsigned long long>(events), rate, eta);
  // Mirror the samples onto Perfetto wall-track counters so the host's
  // own speed lines up under the wall-time process in the trace view.
  if (TraceRecorder* recorder = tracer()) {
    const Time ts = recorder->wall_now();
    recorder->counter(recorder->track("host.events_per_sec"), "host",
                      "events_per_sec", ts, rate, TraceClock::kWall);
    recorder->counter(recorder->track("host.rss_mib"), "host", "rss_mib", ts,
                      static_cast<double>(current_rss_bytes()) / (1024.0 * 1024.0),
                      TraceClock::kWall);
    recorder->counter(recorder->track("host.requests_pct"), "host",
                      "requests_pct", ts, pct, TraceClock::kWall);
  }
}

std::uint64_t HostProfiler::events_total() const {
  std::uint64_t total = 0;
  for (const std::uint64_t n : events_) total += n;
  return total;
}

HostReport HostProfiler::report(Time sim_makespan) const {
  HostReport out;
  out.enabled = true;
  const Time now = wallclock::now_ns();
  out.wall_seconds = wallclock::to_seconds(now - start_wall_);
  out.sim_time = sim_makespan;
  out.events = events_;
  out.events_total = events_total();
  if (out.wall_seconds > 0.0) {
    out.events_per_sec = static_cast<double>(out.events_total) / out.wall_seconds;
    const double sim_seconds =
        static_cast<double>(sim_makespan) / static_cast<double>(kSecond);
    out.sim_time_per_wall_second = sim_seconds / out.wall_seconds;
  }
  out.requests_total = total_requests_;
  out.requests_completed = completed_requests_;
  out.heartbeats = heartbeats_;
  out.peak_rss_bytes = peak_rss_bytes();
  out.timeline_alloc = alloc_delta(alloc_tally(AllocDomain::kTimeline), timeline_base_);
  std::array<Time, kHostSubsystemCount> billed = billed_;
  std::array<std::uint64_t, kHostSubsystemCount> bills = bills_;
  billed[static_cast<int>(HostSubsystem::kEngine)] += now - last_wall_;
  ++bills[static_cast<int>(HostSubsystem::kEngine)];
  for (int s = 0; s < kHostSubsystemCount; ++s) {
    HostSectionStat stat;
    stat.name = host_subsystem_name(static_cast<HostSubsystem>(s));
    stat.wall_seconds = wallclock::to_seconds(billed[s]);
    stat.enters = bills[s];
    out.sections.push_back(std::move(stat));
  }
  std::stable_sort(out.sections.begin(), out.sections.end(),
                   [](const HostSectionStat& a, const HostSectionStat& b) {
                     return a.wall_seconds > b.wall_seconds;
                   });
  return out;
}

std::string HostReport::summary() const {
  std::string out = "== host speed report ==\n";
  const double sim_ms =
      static_cast<double>(sim_time) / static_cast<double>(kMillisecond);
  out += format("  wall %.3f s for %.3f sim-ms -> %.3g sim-s per wall-s\n",
                wall_seconds, sim_ms, sim_time_per_wall_second);
  out += format("  events %llu (%.0f/s):",
                static_cast<unsigned long long>(events_total), events_per_sec);
  for (int e = 0; e < kHostEventCount; ++e) {
    out += format(" %s %llu", host_event_name(static_cast<HostEvent>(e)),
                  static_cast<unsigned long long>(events[e]));
  }
  out += "\n";
  out += format("  memory: peak RSS %s; timeline alloc %s (peak live %s)\n",
                format_bytes(static_cast<double>(peak_rss_bytes)).c_str(),
                format_bytes(static_cast<double>(timeline_alloc.allocated_bytes)).c_str(),
                format_bytes(static_cast<double>(timeline_alloc.peak_live_bytes)).c_str());
  if (!sections.empty()) {
    out += "  host time by subsystem:\n";
    for (const HostSectionStat& s : sections) {
      out += format("    %-12s %8.3f s  %5.1f%%  (%llu events)\n",
                    s.name.c_str(), s.wall_seconds,
                    wall_seconds > 0.0 ? 100.0 * s.wall_seconds / wall_seconds : 0.0,
                    static_cast<unsigned long long>(s.enters));
    }
  }
  if (heartbeats > 0) {
    out += format("  heartbeats emitted: %llu\n",
                  static_cast<unsigned long long>(heartbeats));
  }
  return out;
}

}  // namespace nvmooc::obs
