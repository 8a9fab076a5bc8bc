// Span tracing for the simulated I/O stack.
//
// The recorder collects spans — (track, category, name, ts, dur, args) —
// from every layer boundary of a replay and exports them as Chrome
// trace_event JSON, loadable in Perfetto / chrome://tracing. Two clocks
// coexist: *sim* spans carry simulation timestamps (picoseconds,
// exported as microseconds) and live under the "sim-time" process;
// *wall* events (the host profiler's heartbeat counters: events per
// second, RSS, percent complete) carry steady-clock nanoseconds since
// recorder creation and live under the "wall-time" process, so the two
// time bases never mix on one track.
//
// Recording is lock-free-ish: each thread appends to its own buffer
// (registered with the recorder once, under a mutex) and resolves track
// names through a thread-local cache, so the steady state takes no lock.
//
// The recorder is also the probe's tracer (common/probe.hpp): installed
// in its slot (cluster/instruments.hpp), it renders the replay's probe stream itself — one
// track per named link, channel, package port and die plane (with
// ".wait<k>" lanes for contention, since same-track spans must nest),
// one "io.lane<k>" track per concurrently in-flight request, and the
// engine's outstanding-bytes counter. That rendering state belongs to
// the replay thread; span() and counter() are safe from any thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/probe.hpp"
#include "common/units.hpp"

namespace nvmooc::obs {

enum class TraceClock : std::uint8_t { kSim = 0, kWall = 1 };

/// One key=value annotation on a span. `literal` is spliced into the
/// JSON args object verbatim — pass numbers as their decimal rendering
/// and strings pre-quoted (SpanArg has helpers for both).
struct SpanArg {
  std::string key;
  std::string literal;

  static SpanArg number(std::string key, double v);
  static SpanArg integer(std::string key, std::int64_t v);
  static SpanArg text(std::string key, const std::string& v);
};

struct SpanEvent {
  std::uint32_t track = 0;
  const char* category = "";  ///< Static-storage string.
  std::string name;
  Time ts;   ///< Sim picoseconds or wall nanoseconds, per `clock`.
  Time dur;  ///< Same unit as ts. 0 renders as an instant event.
  TraceClock clock = TraceClock::kSim;
  bool counter = false;  ///< Chrome 'C' event: `value` plotted over time.
  double value = 0.0;
  std::vector<SpanArg> args;
};

class TraceRecorder final : public probe::Subscriber {
 public:
  /// Bounds memory on long replays: events beyond it are counted but
  /// dropped (the drop count rides in the export metadata).
  static constexpr std::size_t kMaxEvents = 2'000'000;

  TraceRecorder();
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Resolves a track name to its id, registering it on first use.
  /// Thread-safe; cached per thread after the first call.
  std::uint32_t track(const std::string& name);

  /// Records one complete span on `track`. `category` must point at
  /// static storage (string literals at the instrumentation sites).
  void span(std::uint32_t track, const char* category, std::string name, Time ts,
            Time dur, std::vector<SpanArg> args = {},
            TraceClock clock = TraceClock::kSim);

  /// Records a counter sample (rendered by Perfetto as a stepped graph).
  void counter(std::uint32_t track, const char* category, std::string name, Time ts,
               double value, TraceClock clock = TraceClock::kSim);

  /// Wall-clock nanoseconds since this recorder was created.
  [[nodiscard]] Time wall_now() const;

  std::uint64_t dropped() const;

  /// Serialises everything recorded so far as Chrome trace_event JSON.
  void write_chrome_json(std::ostream& out) const;
  std::string chrome_json() const;

  // Probe subscription: the replay's spans and counters.
  void on_interval(const probe::Interval& interval) override;
  void on_replay_begin(std::uint64_t posix_requests) override;
  void on_request_close(const probe::RequestClose& request) override;
  void on_note(const probe::Note& note) override;

 private:
  struct Buffer {
    std::vector<SpanEvent> events;
  };

  Buffer* local_buffer();
  void emit(SpanEvent event);

  const std::uint64_t id_;  ///< Globally unique; keys the TLS buffer cache.
  /// wallclock::now_ns() at construction (common/wallclock.hpp) — wall
  /// timestamps are relative to recorder creation on the shared
  /// monotone time base.
  const Time epoch_;

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
  std::vector<std::string> tracks_;
  std::unordered_map<std::string, std::uint32_t> track_ids_;
  std::atomic<std::size_t> event_count_{0};
  std::atomic<std::uint64_t> dropped_{0};

  /// A wait span on the first ".wait<k>" lane of `track` free at `start`.
  void wait_span(const std::string& track, const char* name, Time start, Time end);
  /// A busy span on `track` itself (timeline grants never overlap).
  void busy_span(const std::string& track, const char* category, const char* name,
                 Time start, Time end, std::vector<SpanArg> args = {});

  // Replay rendering state, reset at every replay begin.
  /// Per resource track, the end of the last span on each wait lane.
  std::unordered_map<std::string, std::vector<Time>> wait_lanes_;
  struct RequestLane {
    Time free_at;
    std::uint32_t track = 0;
  };
  std::vector<RequestLane> request_lanes_;
  std::uint32_t window_track_ = 0;
};

/// The calling thread's active tracer, or null.
inline TraceRecorder* tracer() {
  return static_cast<TraceRecorder*>(probe::slot(probe::Slot::kTrace));
}

}  // namespace nvmooc::obs
