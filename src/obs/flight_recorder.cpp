#include "obs/flight_recorder.hpp"

#include <algorithm>

#include "common/string_util.hpp"
#include "obs/json.hpp"

namespace nvmooc::obs {

FlightRecorder::FlightRecorder(Options options)
    : probe::Subscriber(probe::bit(probe::Kind::kNote) | probe::bit(probe::Kind::kRequest)),
      options_(options) {
  options_.event_capacity = std::max<std::size_t>(options_.event_capacity, 16);
  options_.ledger_capacity = std::max<std::size_t>(options_.ledger_capacity, 4);
  event_ring_.resize(options_.event_capacity);
  ledger_ring_.resize(options_.ledger_capacity);
}

void FlightRecorder::on_note(const probe::Note& note) {
  FlightEvent& slot = event_ring_[events_seen_ % options_.event_capacity];
  slot.t = note.t;
  slot.category = note.category;
  slot.what = note.what;
  slot.a = note.a;
  slot.b = note.b;
  slot.seq = events_seen_;
  if (note.detail != nullptr) {
    slot.detail = note.detail;
  } else {
    slot.detail.clear();
  }
  ++events_seen_;
}

void FlightRecorder::on_request_close(const probe::RequestClose& request) {
  ledger_ring_[ledgers_seen_ % options_.ledger_capacity] = request.ledger;
  ++ledgers_seen_;
}

std::vector<FlightEvent> FlightRecorder::events() const {
  std::vector<FlightEvent> out;
  const std::uint64_t kept =
      std::min<std::uint64_t>(events_seen_, options_.event_capacity);
  out.reserve(kept);
  for (std::uint64_t i = events_seen_ - kept; i < events_seen_; ++i) {
    out.push_back(event_ring_[i % options_.event_capacity]);
  }
  return out;
}

std::vector<PhaseLedger> FlightRecorder::ledgers() const {
  std::vector<PhaseLedger> out;
  const std::uint64_t kept =
      std::min<std::uint64_t>(ledgers_seen_, options_.ledger_capacity);
  out.reserve(kept);
  for (std::uint64_t i = ledgers_seen_ - kept; i < ledgers_seen_; ++i) {
    out.push_back(ledger_ring_[i % options_.ledger_capacity]);
  }
  return out;
}

std::string FlightRecorder::dump_json(const std::string& reason) const {
  const auto us = [](Time t) {
    return static_cast<double>(t) / static_cast<double>(kMicrosecond);
  };
  JsonWriter w;
  w.begin_object();
  w.field("schema_version", std::uint64_t{1});
  w.field("reason", reason);
  w.field("events_seen", events_seen_);
  w.field("events_kept",
          std::min<std::uint64_t>(events_seen_, options_.event_capacity));
  w.field("requests_seen", ledgers_seen_);
  w.field("requests_kept",
          std::min<std::uint64_t>(ledgers_seen_, options_.ledger_capacity));

  w.key("events");
  w.begin_array();
  for (const FlightEvent& event : events()) {
    w.begin_object();
    w.field("seq", event.seq);
    w.field("t_us", us(event.t));
    w.field("category", event.category == nullptr ? "?" : event.category);
    w.field("what", event.what == nullptr ? "?" : event.what);
    w.field("a", event.a);
    w.field("b", event.b);
    if (!event.detail.empty()) w.field("detail", event.detail);
    w.end_object();
  }
  w.end_array();

  w.key("requests");
  w.begin_array();
  for (const PhaseLedger& ledger : ledgers()) {
    w.begin_object();
    w.field("id", ledger.id);
    w.field("class", ledger.klass());
    w.field("bytes", ledger.bytes);
    w.field("retries", std::uint64_t{ledger.retries});
    w.field("ready_us", us(ledger.ready));
    w.field("admit_us", us(ledger.admit));
    w.field("issue_us", us(ledger.issue));
    w.field("media_begin_us", us(ledger.media_begin));
    w.field("media_end_us", us(ledger.media_end));
    w.field("completion_us", us(ledger.completion));
    w.key("stages_us");
    w.begin_object();
    for (int s = 0; s < kLatencyStageCount; ++s) {
      w.field(latency_stage_key(static_cast<LatencyStage>(s)),
              ledger.stage_us(static_cast<LatencyStage>(s)));
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();

  w.end_object();
  return w.take();
}

std::string FlightRecorder::summary() const {
  return format(
      "flight recorder: %llu event(s) (%llu kept), %llu request ledger(s) "
      "(%llu kept)",
      static_cast<unsigned long long>(events_seen_),
      static_cast<unsigned long long>(
          std::min<std::uint64_t>(events_seen_, options_.event_capacity)),
      static_cast<unsigned long long>(ledgers_seen_),
      static_cast<unsigned long long>(
          std::min<std::uint64_t>(ledgers_seen_, options_.ledger_capacity)));
}

}  // namespace nvmooc::obs
