#include "obs/trace_recorder.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <sstream>

#include "common/shard_domain.hpp"
#include "common/wallclock.hpp"
#include "obs/json.hpp"

namespace nvmooc::obs {

namespace {

std::uint64_t next_recorder_id() {
  SIM_SHARD_SHARED("process-wide recorder id source; relaxed atomic fetch-add, ids feed the tls cache key only and never simulated state")
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

/// Thread-local cache: this thread's buffer in the recorder it last used,
/// plus its private mirror of the track-name table. Keyed by recorder id
/// (ids are never reused, so a stale entry can never match a live
/// recorder).
struct TlsCache {
  std::uint64_t recorder_id = 0;
  void* buffer = nullptr;
  std::unordered_map<std::string, std::uint32_t> tracks;
};

SIM_SHARD_SHARED("thread-local span-buffer cache; each thread reads and writes only its own entry and the recorder validates it by id")
thread_local TlsCache tls_cache;

}  // namespace

SpanArg SpanArg::number(std::string key, double v) {
  return {std::move(key), json_number(v)};
}

SpanArg SpanArg::integer(std::string key, std::int64_t v) {
  return {std::move(key), std::to_string(v)};
}

SpanArg SpanArg::text(std::string key, const std::string& v) {
  return {std::move(key), "\"" + json_escape(v) + "\""};
}

TraceRecorder::TraceRecorder()
    : probe::Subscriber(probe::bit(probe::Kind::kInterval) | probe::bit(probe::Kind::kReplay) |
                        probe::bit(probe::Kind::kRequest) | probe::bit(probe::Kind::kNote)),
      id_(next_recorder_id()),
      epoch_(wallclock::now_ns()) {}

TraceRecorder::~TraceRecorder() = default;

TraceRecorder::Buffer* TraceRecorder::local_buffer() {
  if (tls_cache.recorder_id == id_) {
    return static_cast<Buffer*>(tls_cache.buffer);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  buffers_.push_back(std::make_unique<Buffer>());
  tls_cache.recorder_id = id_;
  tls_cache.buffer = buffers_.back().get();
  tls_cache.tracks.clear();
  return buffers_.back().get();
}

std::uint32_t TraceRecorder::track(const std::string& name) {
  // Warm the buffer first so the TLS cache is bound to this recorder.
  local_buffer();
  const auto cached = tls_cache.tracks.find(name);
  if (cached != tls_cache.tracks.end()) return cached->second;

  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = track_ids_.try_emplace(
      name, static_cast<std::uint32_t>(tracks_.size()));
  if (inserted) tracks_.push_back(name);
  tls_cache.tracks.emplace(name, it->second);
  return it->second;
}

void TraceRecorder::emit(SpanEvent event) {
  if (event_count_.load(std::memory_order_relaxed) >= kMaxEvents) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  event_count_.fetch_add(1, std::memory_order_relaxed);
  local_buffer()->events.push_back(std::move(event));
}

void TraceRecorder::span(std::uint32_t track, const char* category, std::string name,
                         Time ts, Time dur, std::vector<SpanArg> args,
                         TraceClock clock) {
  SpanEvent event;
  event.track = track;
  event.category = category;
  event.name = std::move(name);
  event.ts = ts;
  event.dur = dur;
  event.clock = clock;
  event.args = std::move(args);
  emit(std::move(event));
}

void TraceRecorder::counter(std::uint32_t track, const char* category,
                            std::string name, Time ts, double value,
                            TraceClock clock) {
  SpanEvent event;
  event.track = track;
  event.category = category;
  event.name = std::move(name);
  event.ts = ts;
  event.clock = clock;
  event.counter = true;
  event.value = value;
  emit(std::move(event));
}

Time TraceRecorder::wall_now() const { return wallclock::now_ns() - epoch_; }

std::uint64_t TraceRecorder::dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

void TraceRecorder::write_chrome_json(std::ostream& out) const {
  // Snapshot under the lock; recording normally has quiesced by now.
  std::vector<const SpanEvent*> events;
  std::vector<std::string> tracks;
  std::uint64_t dropped;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& buffer : buffers_) {
      for (const SpanEvent& event : buffer->events) events.push_back(&event);
    }
    tracks = tracks_;
    dropped = dropped_.load(std::memory_order_relaxed);
  }
  // Stable order: clock, then track, then time — Perfetto sorts anyway,
  // but deterministic output makes the export diffable and testable.
  std::sort(events.begin(), events.end(),
            [](const SpanEvent* a, const SpanEvent* b) {
              if (a->clock != b->clock) return a->clock < b->clock;
              if (a->track != b->track) return a->track < b->track;
              if (a->ts != b->ts) return a->ts < b->ts;
              return a->dur > b->dur;  // Parents before their children.
            });

  // Sim timestamps are picoseconds and wall timestamps nanoseconds; the
  // trace_event `ts` field is microseconds (fractional allowed).
  const auto to_us = [](Time t, TraceClock clock) {
    return clock == TraceClock::kSim ? static_cast<double>(t) / static_cast<double>(kMicrosecond)
                                     : static_cast<double>(t) / 1e3;
  };
  const auto pid_of = [](TraceClock clock) {
    return clock == TraceClock::kSim ? 1 : 2;
  };

  JsonWriter w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  // Process/thread name metadata so Perfetto shows readable track names.
  for (const int pid : {1, 2}) {
    w.begin_object();
    w.field("ph", "M");
    w.field("name", "process_name");
    w.field("pid", std::int64_t{pid});
    w.key("args");
    w.begin_object();
    w.field("name", pid == 1 ? "sim-time" : "wall-time");
    w.end_object();
    w.end_object();
  }
  for (std::size_t tid = 0; tid < tracks.size(); ++tid) {
    for (const int pid : {1, 2}) {
      w.begin_object();
      w.field("ph", "M");
      w.field("name", "thread_name");
      w.field("pid", std::int64_t{pid});
      w.field("tid", static_cast<std::int64_t>(tid));
      w.key("args");
      w.begin_object();
      w.field("name", tracks[tid]);
      w.end_object();
      w.end_object();
    }
  }
  for (const SpanEvent* event : events) {
    w.begin_object();
    w.field("name", event->name);
    w.field("cat", event->category);
    w.field("pid", static_cast<std::int64_t>(pid_of(event->clock)));
    w.field("tid", static_cast<std::int64_t>(event->track));
    w.field("ts", to_us(event->ts, event->clock));
    if (event->counter) {
      w.field("ph", "C");
      w.key("args");
      w.begin_object();
      w.field("value", event->value);
      w.end_object();
    } else if (event->dur > Time{}) {
      w.field("ph", "X");
      w.field("dur", to_us(event->dur, event->clock));
      if (!event->args.empty()) {
        w.key("args");
        w.begin_object();
        for (const SpanArg& arg : event->args) {
          w.key(arg.key);
          w.raw(arg.literal);
        }
        w.end_object();
      }
    } else {
      w.field("ph", "i");
      w.field("s", "t");
    }
    w.end_object();
  }
  w.end_array();
  w.field("displayTimeUnit", "ms");
  w.key("otherData");
  w.begin_object();
  w.field("generator", "nvmooc");
  w.field("dropped_events", static_cast<std::uint64_t>(dropped));
  w.end_object();
  w.end_object();
  out << w.str();
}

std::string TraceRecorder::chrome_json() const {
  std::ostringstream out;
  write_chrome_json(out);
  return out.str();
}

}  // namespace nvmooc::obs

namespace nvmooc::obs {

// -- probe rendering ---------------------------------------------------------

void TraceRecorder::wait_span(const std::string& track_name, const char* name, Time start,
                              Time end) {
  if (end <= start) return;
  // First wait lane free at `start`; every lane holds disjoint spans
  // because a lane's recorded time only moves forward.
  std::vector<Time>& lanes = wait_lanes_[track_name];
  std::size_t lane = 0;
  while (lane < lanes.size() && lanes[lane] > start) ++lane;
  if (lane == lanes.size()) lanes.push_back(Time{});
  lanes[lane] = end;
  std::string wait_track = track_name + ".wait";
  if (lane > 0) wait_track += std::to_string(lane);
  span(track(wait_track), "phase", name, start, end - start);
}

void TraceRecorder::busy_span(const std::string& track_name, const char* category,
                              const char* name, Time start, Time end,
                              std::vector<SpanArg> args) {
  if (end <= start) return;
  span(track(track_name), category, name, start, end - start, std::move(args));
}

void TraceRecorder::on_replay_begin(std::uint64_t /*posix_requests*/) {
  wait_lanes_.clear();
  request_lanes_.clear();
  window_track_ = track("engine.window");
}

void TraceRecorder::on_interval(const probe::Interval& iv) {
  using probe::Resource;
  if (iv.resource == Resource::kLink && !iv.label->empty() && iv.end > iv.start) {
    // Named links only; the queueing wait past the fixed latencies rides
    // as an arg.
    std::vector<SpanArg> args;
    if (iv.start > iv.ready) {
      args.push_back(SpanArg::number(
          "waited_us",
          static_cast<double>(iv.start - iv.ready) / static_cast<double>(kMicrosecond)));
    }
    span(track(*iv.label), "timeline", "reserve", iv.start, iv.end - iv.start,
         std::move(args));
  }
  if (iv.resource < Resource::kChannelStall) return;  // Links and the RPC window.

  const std::string name = probe::resource_name(iv.resource, iv.site);
  if (iv.resource == Resource::kChannelStall) {
    wait_span(name, "channel_stall", iv.earliest, iv.start);
  } else if (iv.resource == Resource::kChannel) {
    wait_span(name, "channel_contention", iv.earliest, iv.start);
    busy_span(name, "phase", "channel_activation", iv.start, iv.end);
  } else if (iv.resource == Resource::kPort) {
    wait_span(name, "channel_contention", iv.earliest, iv.start);
    busy_span(name, "phase", "flash_bus_activation", iv.start, iv.end);
  } else {
    wait_span(name, "cell_contention", iv.earliest, iv.start);
    if (iv.erase) {
      busy_span(name, "phase", "cell_activation", iv.start, iv.end,
                {SpanArg::text("op", "erase")});
    } else if (iv.attempt == 0) {
      busy_span(name, "phase", "cell_activation", iv.start, iv.end);
    } else {
      // A retry ladder step: the re-sense itself, flagged so fault runs
      // are visually (and programmatically) distinguishable.
      busy_span(name, "ecc", "ecc_retry", iv.start, iv.end,
                {SpanArg::integer("attempt", iv.attempt)});
    }
  }
}

void TraceRecorder::on_request_close(const probe::RequestClose& request) {
  const probe::PhaseLedger& l = request.ledger;
  // Each in-flight request rides its own lane: Perfetto renders
  // same-track spans as a nesting stack, so concurrent requests must not
  // share one. Lane count is bounded by the flow-control window's depth.
  auto lane = std::find_if(request_lanes_.begin(), request_lanes_.end(),
                           [&](const RequestLane& c) { return c.free_at <= l.ready; });
  if (lane == request_lanes_.end()) {
    lane = request_lanes_.insert(
        lane, {Time{}, track("io.lane" + std::to_string(request_lanes_.size()))});
  }
  lane->free_at = l.completion;
  const std::uint32_t lane_track = lane->track;

  std::vector<SpanArg> args;
  args.push_back(SpanArg::integer("bytes", static_cast<std::int64_t>(l.bytes)));
  if (l.internal) args.push_back(SpanArg::text("class", "internal"));
  span(lane_track, "request", l.read ? "read" : "write", l.ready, l.completion - l.ready,
       std::move(args));
  if (l.admit > l.ready) span(lane_track, "phase", "window_wait", l.ready, l.admit - l.ready);
  if (l.media_end > l.media_begin) {
    std::vector<SpanArg> margs;
    margs.push_back(SpanArg::text("pal", request.pal));
    if (l.retries > 0) margs.push_back(SpanArg::integer("ecc_retries", l.retries));
    span(lane_track, "device", "media", l.media_begin, l.media_end - l.media_begin,
         std::move(margs));
  }
  const Time tail = l.stage[static_cast<int>(probe::LatencyStage::kCompletionTail)];
  if (tail > Time{}) {
    span(lane_track, "phase", "non_overlapped_dma", l.read ? l.media_end : l.issue, tail);
  }
  counter(window_track_, "engine", "outstanding_bytes", l.admit,
          static_cast<double>(request.in_flight));
}

void TraceRecorder::on_note(const probe::Note& note) {
  // The one breadcrumb drawn on the timeline: a compute-local read
  // re-fetched from the ION replica.
  if (std::strcmp(note.category, "engine") != 0 ||
      std::strcmp(note.what, "degraded_refetch") != 0) {
    return;
  }
  span(track("engine.degraded"), "reliability", "degraded_refetch", note.t, Time{},
       {SpanArg::integer("bytes", static_cast<std::int64_t>(note.b))});
}

}  // namespace nvmooc::obs
