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

std::string Auditor::track_name(const TrackKey& key) {
  if (key.resource == probe::Resource::kLink) {
    return key.label.empty() ? "unnamed link" : key.label;
  }
  return probe::resource_name(key.resource, key.site);
}

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
    : probe::Subscriber(probe::bit(probe::Kind::kInterval) | probe::bit(probe::Kind::kTxn) |
                        probe::bit(probe::Kind::kReplay) | probe::bit(probe::Kind::kRequest) |
                        probe::bit(probe::Kind::kMedia)) {
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

void Auditor::on_posix(const probe::Posix& posix) {
  // The I/O path must neither drop nor invent application bytes (journal
  // and metadata traffic rides separately as internal bytes).
  report_.requested_bytes += posix.size;
  report_.granted_payload_bytes += posix.payload;
  report_.granted_internal_bytes += posix.internal;
  if (posix.payload != posix.size) {
    std::ostringstream out;
    out << "FS/UFS grant mismatch: posix request of " << posix.size.value()
        << "B expanded to " << posix.payload.value() << "B of payload";
    violation("conservation", out.str());
  }
}

void Auditor::on_media_begin(Bytes expected, bool internal) {
  if (media_active_) {
    violation("conservation",
              "controller re-entered while a request was in flight");
  }
  media_active_ = true;
  media_internal_ = internal;
  media_expected_ = expected;
  media_matched_ = Bytes{};
}

void Auditor::on_media_transfer(Bytes bytes, MediaKind kind, std::uint32_t retries) {
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

void Auditor::on_media_end(const probe::MediaDone& /*done*/) {
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

void Auditor::check_order(std::uint64_t id, const char* event, Time at, Time prior) {
  if (at < prior) {
    std::ostringstream out;
    out << "request " << id << ": " << event << " at " << time_str(at)
        << " precedes prior event at " << time_str(prior);
    violation("causality", out.str());
  }
}

void Auditor::on_request_open(const probe::RequestOpen& request) {
  const std::uint64_t id = report_.requests_tracked++;
  if (request_open_) {
    std::ostringstream out;
    out << "request " << id << " opened while request " << open_id_ << " is still open";
    violation("causality", out.str());
  }
  request_open_ = true;
  open_id_ = id;
  open_issue_ = request.issue;
  issue_watermark_ = std::max(issue_watermark_, request.watermark);
  check_order(id, "admitted", request.admit, request.ready);
  check_order(id, "dispatched", request.issue, request.admit);
}

void Auditor::on_request_close(const probe::RequestClose& request) {
  if (!request_open_) {
    std::ostringstream out;
    out << "request " << request.ledger.id << " closed with no request open";
    violation("causality", out.str());
    return;
  }
  request_open_ = false;
  const probe::PhaseLedger& l = request.ledger;
  if (l.media_end < l.media_begin) {
    std::ostringstream out;
    out << "request " << open_id_ << ": media ends at " << time_str(l.media_end)
        << " before it begins at " << time_str(l.media_begin);
    violation("causality", out.str());
  }
  check_order(open_id_, "media", l.media_begin, open_issue_);
  check_order(open_id_, "completed", l.completion, std::max(l.media_begin, l.media_end));
  ++report_.requests_completed;
}

// -- occupancy --------------------------------------------------------------

void Auditor::on_replay_begin(std::uint64_t /*posix_requests*/) {
  tracks_.clear();
  issue_watermark_ = Time{};
}

void Auditor::on_interval(const probe::Interval& interval) {
  const Time start = interval.start;
  const Time end = interval.end;
  if (end <= start) return;  // Empty intervals occupy nothing.
  // A step occupies its channel, its package's port or its plane.
  TrackKey key{interval.resource, interval.site, {}};
  switch (interval.resource) {
    case probe::Resource::kLink:
      key.label = *interval.label;
      break;
    case probe::Resource::kChannel:
      key.site.package = 0;
      [[fallthrough]];
    case probe::Resource::kPort:
      key.site.die = 0;
      key.site.plane = 0;
      break;
    default:
      break;
  }
  const auto [track, fresh] = tracks_.try_emplace(std::move(key));
  if (fresh) ++report_.timelines;
  ++report_.reservations;

  if (interval.ready < issue_watermark_) {
    std::ostringstream out;
    out << "grant on " << track_name(track->first) << " ready at " << time_str(interval.ready)
        << ", before the issue watermark " << time_str(issue_watermark_);
    violation("causality", out.str());
  }

  const std::int64_t s = start.ps();
  const std::int64_t e = end.ps();
  auto& ivals = track->second;
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
    out << "double booking on " << track_name(track->first) << ": grant [" << s << ", " << e
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

// -- finalize ---------------------------------------------------------------

AuditReport Auditor::report() const {
  AuditReport out = report_;

  const auto add = [&out](const char* invariant, std::string detail) {
    ++out.violation_count;
    if (out.violations.size() < kMaxRecordedViolations) {
      out.violations.push_back(AuditViolation{invariant, std::move(detail)});
    }
  };

  // Every opened request must have closed, aborted or not: the engine
  // closes each request it opens even when it cuts a replay short.
  if (request_open_) {
    add("causality", "request " + std::to_string(open_id_) + " never completed");
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

}  // namespace nvmooc::check
