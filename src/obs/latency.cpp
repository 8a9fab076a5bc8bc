#include "obs/latency.hpp"

#include <algorithm>

#include "common/string_util.hpp"
#include "obs/json.hpp"

namespace nvmooc::obs {

const char* latency_stage_key(LatencyStage stage) {
  switch (stage) {
    case LatencyStage::kQueueWait: return "queue_wait";
    case LatencyStage::kCpu: return "cpu";
    case LatencyStage::kDispatch: return "dispatch";
    case LatencyStage::kBus: return "bus";
    case LatencyStage::kMediaWait: return "media_wait";
    case LatencyStage::kMedia: return "media";
    case LatencyStage::kEccRetry: return "ecc_retry";
    case LatencyStage::kCompletionTail: return "completion_tail";
    case LatencyStage::kTotal: return "total";
  }
  return "?";
}

// -- LatencyAccumulator --------------------------------------------------

void LatencyAccumulator::record(const PhaseLedger& ledger) {
  for (int s = 0; s < kLatencyStageCount; ++s) {
    stage_[s].record(ledger.stage_us(static_cast<LatencyStage>(s)));
  }
  (ledger.read ? read_total_ : write_total_).record(ledger.total_us());
}

LatencyBreakdown LatencyAccumulator::breakdown() const {
  LatencyBreakdown out;
  for (int s = 0; s < kLatencyStageCount; ++s) out.stage[s] = stage_[s].summary();
  out.read_total = read_total_.summary();
  out.write_total = write_total_.summary();
  return out;
}

// -- ExemplarReservoir ---------------------------------------------------

namespace {

/// Strict "a is a slower exemplar than b" order: latency descending with
/// the earlier request id winning ties — total order, so reruns of a
/// deterministic replay pick identical exemplar sets.
bool slower(const PhaseLedger& a, const PhaseLedger& b) {
  const Time ta = a.stage[static_cast<int>(LatencyStage::kTotal)];
  const Time tb = b.stage[static_cast<int>(LatencyStage::kTotal)];
  if (ta != tb) return ta > tb;
  return a.id < b.id;
}

}  // namespace

void ExemplarReservoir::offer(const PhaseLedger& ledger) {
  if (capacity_ == 0) return;
  if (ledgers_.size() >= capacity_ && !slower(ledger, ledgers_.back())) return;
  const auto at = std::upper_bound(ledgers_.begin(), ledgers_.end(), ledger, slower);
  ledgers_.insert(at, ledger);
  if (ledgers_.size() > capacity_) ledgers_.pop_back();
}

// -- LatencyObservatory --------------------------------------------------

LatencyObservatory::LatencyObservatory(std::size_t per_class)
    : probe::Subscriber(probe::bit(probe::Kind::kRequest)),
      per_class_(std::max<std::size_t>(per_class, 1)) {}

void LatencyObservatory::on_request_close(const probe::RequestClose& request) {
  ++observed_;
  classes_.try_emplace(request.ledger.klass(), per_class_).first->second.offer(request.ledger);
}

std::vector<PhaseLedger> LatencyObservatory::exemplars() const {
  std::vector<PhaseLedger> out;
  for (const auto& [klass, reservoir] : classes_) {
    (void)klass;
    out.insert(out.end(), reservoir.ledgers().begin(), reservoir.ledgers().end());
  }
  return out;
}

std::string LatencyObservatory::waterfall_json() const {
  JsonWriter w;
  w.begin_object();
  w.field("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();

  const auto us = [](Time t) {
    return static_cast<double>(t) / static_cast<double>(kMicrosecond);
  };
  const auto meta = [&](std::uint64_t pid, std::uint64_t tid, const char* what,
                        const std::string& name) {
    w.begin_object();
    w.field("ph", "M");
    w.field("pid", pid);
    w.field("tid", tid);
    w.field("name", what);
    w.key("args");
    w.begin_object();
    w.field("name", name);
    w.end_object();
    w.end_object();
  };

  std::uint64_t pid = 0;
  for (const auto& [klass, reservoir] : classes_) {
    std::size_t rank = 0;
    for (const PhaseLedger& ledger : reservoir.ledgers()) {
      ++pid;
      ++rank;
      meta(pid, 0, "process_name",
           format("%s #%zu: %.1f us (request %llu)", klass.c_str(), rank,
                  ledger.total_us(),
                  static_cast<unsigned long long>(ledger.id)));
      meta(pid, 0, "thread_name", "timeline");
      meta(pid, 1, "thread_name", "decomposition");

      // Track 0: real-timestamp spans — the request and, nested inside
      // it, the media occupancy (both in absolute sim time, so exemplars
      // from one replay line up against each other and against a full
      // --trace-out of the same run).
      w.begin_object();
      w.field("ph", "X");
      w.field("pid", pid);
      w.field("tid", std::uint64_t{0});
      w.field("cat", "request");
      w.field("name", ledger.read ? "read" : "write");
      w.field("ts", us(ledger.ready));
      w.field("dur", us(ledger.completion - ledger.ready));
      w.key("args");
      w.begin_object();
      w.field("id", ledger.id);
      w.field("class", klass);
      w.field("bytes", ledger.bytes);
      w.field("retries", std::uint64_t{ledger.retries});
      w.end_object();
      w.end_object();
      if (ledger.media_end > ledger.media_begin) {
        w.begin_object();
        w.field("ph", "X");
        w.field("pid", pid);
        w.field("tid", std::uint64_t{0});
        w.field("cat", "device");
        w.field("name", "media");
        w.field("ts", us(ledger.media_begin));
        w.field("dur", us(ledger.media_end - ledger.media_begin));
        w.end_object();
      }

      // Track 1: the waterfall — stage durations laid end to end from
      // the request's ready time. Positions are cumulative durations,
      // not wall timestamps (media-internal stages overlap in reality);
      // the track answers "where did the time go", the track above
      // answers "when".
      Time cursor = ledger.ready;
      for (int s = 0; s < kLatencyStageCount; ++s) {
        if (static_cast<LatencyStage>(s) == LatencyStage::kTotal) continue;
        const Time dur = ledger.stage[s];
        if (dur <= Time{}) continue;
        w.begin_object();
        w.field("ph", "X");
        w.field("pid", pid);
        w.field("tid", std::uint64_t{1});
        w.field("cat", "stage");
        w.field("name", latency_stage_key(static_cast<LatencyStage>(s)));
        w.field("ts", us(cursor));
        w.field("dur", us(dur));
        w.end_object();
        cursor += dur;
      }
    }
  }

  w.end_array();
  w.end_object();
  return w.take();
}

std::string LatencyObservatory::summary() const {
  std::string out = format("exemplars: %llu request(s) observed",
                           static_cast<unsigned long long>(observed_));
  for (const auto& [klass, reservoir] : classes_) {
    if (reservoir.ledgers().empty()) continue;
    const PhaseLedger& slowest = reservoir.ledgers().front();
    out += format("\n  %-14s kept %zu, slowest %.1f us (request %llu)",
                  klass.c_str(), reservoir.ledgers().size(), slowest.total_us(),
                  static_cast<unsigned long long>(slowest.id));
  }
  out += '\n';
  return out;
}

}  // namespace nvmooc::obs
