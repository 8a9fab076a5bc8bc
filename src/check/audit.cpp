#include "check/audit.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace nvmooc::check {

namespace {

std::string time_str(Time t) {
  std::ostringstream out;
  out << t.ps() << "ps";
  return out.str();
}

}  // namespace

std::string AuditReport::summary() const {
  std::ostringstream out;
  out << "audit: " << (passed() ? "PASS" : "FAIL") << " (" << violation_count
      << " violation" << (violation_count == 1 ? "" : "s") << ")\n";
  out << "  causality:    " << requests_completed << "/" << requests_tracked
      << " requests completed" << (aborted ? " (replay aborted)" : "") << "\n";
  out << "  conservation: requested=" << requested_bytes.value()
      << "B granted=" << granted_payload_bytes.value() << "B (+"
      << granted_internal_bytes.value() << "B internal) media="
      << media_payload_bytes.value() << "B (+"
      << media_internal_bytes.value() << "B internal, "
      << media_rmw_bytes.value() << "B rmw, " << media_retry_bytes.value()
      << "B retry)\n";
  out << "  occupancy:    " << reservations << " reservations over "
      << timelines << " resources, pairwise disjoint\n";
  out << "  ftl:          " << ftl_checks << " mapping checks";
  for (const AuditViolation& v : violations) {
    out << "\n  VIOLATION [" << v.invariant << "] " << v.detail;
  }
  if (violation_count > violations.size()) {
    out << "\n  ... " << (violation_count - violations.size())
        << " more violation(s) elided";
  }
  return out.str();
}

Auditor::Auditor()
    : probe::Subscriber(probe::bit(probe::Kind::kInterval) | probe::bit(probe::Kind::kReplay) |
                        probe::bit(probe::Kind::kRequest) | probe::bit(probe::Kind::kMedia)) {
  report_.enabled = true;
}

void Auditor::violation(const char* invariant, std::string detail) {
  ++report_.violation_count;
  // Breadcrumb for the flight recorder (when one is installed), so the
  // postmortem dump carries the violation next to the recent requests.
  probe::note(Time{}, "audit", invariant, report_.violation_count, 0, detail.c_str());
  if (report_.violations.size() < kMaxRecordedViolations) {
    report_.violations.push_back(AuditViolation{invariant, std::move(detail)});
  }
}

// -- conservation -----------------------------------------------------------

void Auditor::posix_request(Bytes size) { report_.requested_bytes += size; }

void Auditor::io_path_grant(Bytes posix_bytes, Bytes payload, Bytes internal) {
  report_.granted_payload_bytes += payload;
  report_.granted_internal_bytes += internal;
  if (payload != posix_bytes) {
    std::ostringstream out;
    out << "FS/UFS grant mismatch: posix request of " << posix_bytes.value()
        << "B expanded to " << payload.value() << "B of payload";
    violation("conservation", out.str());
  }
}

void Auditor::media_request_begin(Bytes expected_bytes, bool internal) {
  if (media_active_) {
    violation("conservation",
              "controller re-entered while a request was in flight");
  }
  media_active_ = true;
  media_internal_ = internal;
  media_expected_ = expected_bytes;
  media_matched_ = Bytes{};
}

void Auditor::media_transfer(Bytes bytes, MediaKind kind,
                             std::uint32_t retries) {
  if (!media_active_) {
    violation("conservation", "media transfer outside any device request");
    return;
  }
  switch (kind) {
    case MediaKind::kRequest:
      media_matched_ += bytes;
      if (media_internal_) {
        report_.media_internal_bytes += bytes;
      } else {
        report_.media_payload_bytes += bytes;
      }
      break;
    case MediaKind::kRmw:
      report_.media_rmw_bytes += bytes;
      break;
    case MediaKind::kGc:
    case MediaKind::kRemap:
      report_.media_internal_bytes += bytes;
      break;
  }
  report_.media_retry_bytes += bytes * retries;
}

void Auditor::media_request_end() {
  if (!media_active_) {
    violation("conservation", "media request ended without beginning");
    return;
  }
  media_active_ = false;
  if (media_matched_ != media_expected_) {
    std::ostringstream out;
    out << "media transfer mismatch: device request expected "
        << media_expected_.value() << "B on the channels, moved "
        << media_matched_.value() << "B";
    violation("conservation", out.str());
  }
}

// -- causality --------------------------------------------------------------

std::uint64_t Auditor::request_issued(Time ready) {
  const std::uint64_t id = requests_.size();
  requests_.push_back(RequestState{Stage::kIssued, ready});
  ++report_.requests_tracked;
  return id;
}

void Auditor::advance(std::uint64_t id, Stage expected_from, Stage to, Time at,
                      const char* event) {
  if (id >= requests_.size()) {
    std::ostringstream out;
    out << event << " for unknown request id " << id;
    violation("causality", out.str());
    return;
  }
  RequestState& state = requests_[id];
  if (state.stage == Stage::kCompleted) {
    std::ostringstream out;
    out << "request " << id << ": " << event << " after completion"
        << (to == Stage::kCompleted ? " (completed twice)" : "");
    violation("causality", out.str());
    return;
  }
  if (state.stage != expected_from) {
    std::ostringstream out;
    out << "request " << id << ": " << event << " out of order (stage "
        << static_cast<int>(state.stage) << ", expected "
        << static_cast<int>(expected_from) << ")";
    violation("causality", out.str());
  }
  if (at < state.last) {
    std::ostringstream out;
    out << "request " << id << ": " << event << " at " << time_str(at)
        << " precedes prior event at " << time_str(state.last);
    violation("causality", out.str());
  }
  state.stage = to;
  state.last = at;
}

void Auditor::request_admitted(std::uint64_t id, Time admit) {
  advance(id, Stage::kIssued, Stage::kAdmitted, admit, "admitted");
}

void Auditor::request_dispatched(std::uint64_t id, Time issue) {
  advance(id, Stage::kAdmitted, Stage::kDispatched, issue, "dispatched");
}

void Auditor::request_media(std::uint64_t id, Time begin, Time end) {
  if (end < begin) {
    std::ostringstream out;
    out << "request " << id << ": media ends at " << time_str(end)
        << " before it begins at " << time_str(begin);
    violation("causality", out.str());
  }
  advance(id, Stage::kDispatched, Stage::kMedia, begin, "media");
  if (id < requests_.size()) requests_[id].last = std::max(begin, end);
}

void Auditor::request_completed(std::uint64_t id, Time completion) {
  // A double completion leaves the stage at kCompleted, so count only
  // transitions made by *this* call.
  const bool was_completed =
      id < requests_.size() && requests_[id].stage == Stage::kCompleted;
  advance(id, Stage::kMedia, Stage::kCompleted, completion, "completed");
  if (id < requests_.size() && !was_completed &&
      requests_[id].stage == Stage::kCompleted) {
    ++report_.requests_completed;
  }
}

void Auditor::replay_aborted() { report_.aborted = true; }

// -- occupancy --------------------------------------------------------------

void Auditor::timeline_reserved(const void* timeline, const std::string& label, Time earliest,
                                Time start, Time end) {
  if (end <= start) return;  // Zero-width grants occupy nothing.
  ResourceTrack& track = tracks_[timeline];
  if (track.name.empty()) {
    ++report_.timelines;
    if (label.empty()) {
      track.name = "resource#" + std::to_string(next_track_ordinal_++);
    } else {
      track.name = label;
    }
  }
  ++report_.reservations;

  if (earliest < issue_watermark_) {
    std::ostringstream out;
    out << "grant on " << track.name << " ready at " << time_str(earliest)
        << ", before the issue watermark " << time_str(issue_watermark_);
    violation("causality", out.str());
  }

  const std::int64_t s = start.ps();
  const std::int64_t e = end.ps();
  auto& ivals = track.intervals;
  // Intervals that end by the watermark cannot meet any grant that
  // respects it.
  while (!ivals.empty() && ivals.begin()->second <= issue_watermark_.ps()) {
    ivals.erase(ivals.begin());
  }

  // Overlap iff a predecessor runs past `s` or a successor starts before `e`.
  auto next = ivals.lower_bound(s);
  const std::int64_t* clash_start = nullptr;
  const std::int64_t* clash_end = nullptr;
  if (next != ivals.begin()) {
    auto prev = std::prev(next);
    if (prev->second > s) {
      clash_start = &prev->first;
      clash_end = &prev->second;
    }
  }
  if (clash_start == nullptr && next != ivals.end() && next->first < e) {
    clash_start = &next->first;
    clash_end = &next->second;
  }
  if (clash_start != nullptr) {
    std::ostringstream out;
    out << "double booking on " << track.name << ": grant [" << s << ", " << e
        << ")ps overlaps existing [" << *clash_start << ", " << *clash_end
        << ")ps";
    violation("occupancy", out.str());
    // Record the union anyway so one clash doesn't cascade.
  }

  // Insert [s, e) and coalesce with touching/overlapping neighbours.
  std::int64_t new_s = s;
  std::int64_t new_e = e;
  auto it = ivals.lower_bound(s);
  if (it != ivals.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= s) {
      new_s = prev->first;
      new_e = std::max(new_e, prev->second);
      it = ivals.erase(prev);
    }
  }
  while (it != ivals.end() && it->first <= new_e) {
    new_e = std::max(new_e, it->second);
    it = ivals.erase(it);
  }
  ivals.emplace(new_s, new_e);
}

void Auditor::timeline_released(const void* timeline) {
  tracks_.erase(timeline);
}

// -- finalize ---------------------------------------------------------------

AuditReport Auditor::report() const {
  AuditReport out = report_;

  const auto add = [&out](const char* invariant, std::string detail) {
    ++out.violation_count;
    if (out.violations.size() < kMaxRecordedViolations) {
      out.violations.push_back(AuditViolation{invariant, std::move(detail)});
    }
  };

  // Every issued request must have completed, aborted or not: the engine
  // drains in-flight requests even when it cuts a replay short.
  for (std::uint64_t id = 0; id < requests_.size(); ++id) {
    if (requests_[id].stage != Stage::kCompleted) {
      std::ostringstream msg;
      msg << "request " << id << " never completed (stage "
          << static_cast<int>(requests_[id].stage) << ")";
      add("causality", msg.str());
    }
  }
  if (media_active_) {
    add("conservation", "replay ended mid device request at the controller");
  }

  // Aggregate byte conservation only holds for replays that ran to the
  // end; an aborted replay stops granting partway through the trace.
  if (!out.aborted && out.requested_bytes != out.granted_payload_bytes) {
    std::ostringstream msg;
    msg << "byte leak between OoC and FS/UFS: requested "
        << out.requested_bytes.value() << "B, granted "
        << out.granted_payload_bytes.value() << "B";
    add("conservation", msg.str());
  }
  return out;
}

// -- probe subscription ----------------------------------------------------

void Auditor::on_interval(const probe::Interval& interval) {
  // Every Timeline grant, labelled or not; controller steps and link
  // transfers are views of grants already seen here.
  if (interval.resource != probe::Resource::kTimeline) return;
  timeline_reserved(interval.object, *interval.label, interval.earliest, interval.start,
                    interval.end);
}

void Auditor::on_posix(const probe::Posix& posix) {
  // Conservation at the OoC/FS boundary: the I/O path must expand every
  // application request into exactly its payload (journal and metadata
  // traffic rides separately as internal bytes).
  posix_request(posix.size);
  io_path_grant(posix.size, posix.payload, posix.internal);
}

void Auditor::on_request_open(const probe::RequestOpen& request) {
  issue_watermark_ = std::max(issue_watermark_, request.watermark);
  open_request_ = request_issued(request.ready);
  request_admitted(open_request_, request.admit);
  request_dispatched(open_request_, request.issue);
}

void Auditor::on_request_close(const probe::RequestClose& request) {
  request_media(open_request_, request.ledger.media_begin, request.ledger.media_end);
  request_completed(open_request_, request.ledger.completion);
}

}  // namespace nvmooc::check
