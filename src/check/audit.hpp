// Cross-layer invariant auditor: proves, during a replay, that the
// simulated I/O stack conserves bytes and time across every layer.
//
// The headline figures rest on accounting identities nothing else
// enforces: a request must complete exactly once, bytes requested by the
// OoC solver must equal bytes granted by the FS/UFS and bytes moved over
// the channels to the dies, and two transactions must never occupy one
// die plane or channel lane at the same instant. The auditor verifies
// four invariant families while the simulation runs:
//
//   conservation  OoC-requested bytes == FS/UFS-granted payload bytes ==
//                 channel-transferred payload bytes (with ECC-retry
//                 re-reads, read-modify-write pre-reads, and GC/remap
//                 relocation traffic each accounted in its own bucket).
//   causality     Each device request's times (ready <= admit <= issue
//                 <= media begin <= media end <= completion) are monotone
//                 in sim time, and the engine closes every request it
//                 opens exactly once, one at a time. No reservation is
//                 ready before the engine's fold watermark (the latest
//                 request's issue time when one client replays).
//   occupancy     Reported occupancies of every serially-occupied
//                 resource (die planes, package ports, channel buses,
//                 host/network DMA links) are pairwise disjoint.
//   ftl           The live LPN->PPN mapping stays injective and never
//                 targets a retired bad block (checked incrementally at
//                 every mapping update and by full sweep at retirement
//                 and replay end; see Ftl::audit_mapping).
//
// Design constraints mirror src/obs:
//  1. Zero overhead when off (the default): the auditor is a probe
//     subscriber (common/probe.hpp), so the layers it checks never name
//     it — they report each occupancy, request stage and media transfer
//     to the probe once, and a site costs one thread-local load and a
//     branch when nobody listens. Auditing never mutates simulation
//     state, so audited replays are bit-identical to unaudited ones (CI
//     enforces this).
//  2. Per-experiment isolation: the auditor is installed thread-locally
//     (AuditSession), so concurrent replays audit independently.
//  3. Bounded memory: a resource's granted intervals that end by the
//     issue watermark are pruned, since every later grant starts at or
//     after it; audit memory tracks what is in flight, not trace length.
//
// Typical site — every controller step, audited or not:
//   probe::step(probe::Resource::kChannel, site, start, cmd.start, cmd.end);
// which reaches Auditor::on_interval when an auditor is installed. The
// owner of each Timeline reports its reservations (the controller as
// steps, a DmaEngine as link transfers); the Timeline itself is silent.
// The probe is the auditor's only input; the engine and the FTL call
// just report(), violation(), ftl_checked() and replay_aborted().
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/probe.hpp"
#include "common/units.hpp"

namespace nvmooc::check {

/// One broken invariant, human-readable. `invariant` is the family key
/// ("conservation", "causality", "occupancy", "ftl").
struct AuditViolation {
  std::string invariant;
  std::string detail;
};

/// What the auditor saw over one replay: the counters that prove the
/// checks actually ran, and every violation (capped; the total count is
/// exact). Exported by ExperimentResult::to_json() under "audit".
struct AuditReport {
  /// True when an auditor was installed for the replay; a default
  /// (disabled) report serialises to nothing.
  bool enabled = false;
  /// The replay aborted (device hard failure / unrecoverable read), so
  /// aggregate byte-equality checks are skipped — a truncated replay
  /// legitimately moves fewer bytes than it requested.
  bool aborted = false;

  // -- causality --------------------------------------------------------
  std::uint64_t requests_tracked = 0;
  std::uint64_t requests_completed = 0;

  // -- conservation -----------------------------------------------------
  Bytes requested_bytes;         ///< OoC/POSIX layer application bytes.
  Bytes granted_payload_bytes;   ///< FS/UFS device requests, payload class.
  Bytes granted_internal_bytes;  ///< FS/UFS journal + metadata traffic.
  Bytes media_payload_bytes;     ///< Channel bytes serving payload requests.
  Bytes media_internal_bytes;    ///< Channel bytes for journal/metadata/GC/remap.
  Bytes media_rmw_bytes;         ///< Read-modify-write pre-reads.
  Bytes media_retry_bytes;       ///< ECC read-retry ladder re-transfers.

  // -- occupancy --------------------------------------------------------
  std::uint64_t timelines = 0;     ///< Distinct resources that were occupied.
  std::uint64_t reservations = 0;  ///< Intervals checked for disjointness.

  // -- ftl --------------------------------------------------------------
  std::uint64_t ftl_checks = 0;  ///< Mapping checks (incremental + sweeps).

  std::uint64_t violation_count = 0;    ///< Exact total.
  std::vector<AuditViolation> violations;  ///< First kMaxRecordedViolations.

  [[nodiscard]] bool passed() const { return violation_count == 0; }
  /// Multi-line human summary (the trace_replay --audit footer).
  [[nodiscard]] std::string summary() const;
};

/// How a channel transfer relates to the request that caused it; the
/// auditor buckets conservation accounting by this.
using MediaKind = probe::MediaKind;

class Auditor final : public probe::Subscriber {
 public:
  Auditor();

  /// The replay aborted; aggregate byte equality is no longer expected.
  void replay_aborted() { report_.aborted = true; }

  /// A mapping check ran (incremental or full sweep); bumps the counter
  /// that proves FTL auditing was active.
  void ftl_checked() { ++report_.ftl_checks; }

  /// Records a broken invariant. Also used directly by layer-owned
  /// checks (the FTL verifies its own maps and reports here).
  void violation(const char* invariant, std::string detail);

  /// Snapshot of the report with end-of-replay checks applied (aggregate
  /// byte conservation, no request or controller transaction left open).
  /// Pure: calling it twice yields the same result.
  [[nodiscard]] AuditReport report() const;

  [[nodiscard]] std::uint64_t violation_count() const {
    return report_.violation_count;
  }

  // -- probe subscription: the auditor's only input ----------------------

  /// Occupancy: a controller step or link transfer held its resource
  /// [start, end) for a reservation that could be granted from `ready`.
  /// Checks that `ready` is not before the issue watermark and that the
  /// occupancy is disjoint from every earlier one on the same resource:
  /// the channel, package port or plane of a step's site, or the link of
  /// a transfer's label. Empty intervals (the RPC window, channel
  /// stalls) occupy nothing.
  void on_interval(const probe::Interval& interval) override;
  /// A new replay runs on a new device from time zero: forget every
  /// resource's intervals and the watermark.
  void on_replay_begin(std::uint64_t posix_requests) override;
  /// Conservation at the OoC/FS boundary: the I/O path expanded one
  /// application request into exactly its payload.
  void on_posix(const probe::Posix& posix) override;
  /// Causality: the engine opens one device request at a time, and its
  /// times run ready <= admit <= issue <= media begin <= media end <=
  /// completion. Opening while one is open, closing with none open and
  /// a request still open at report() are violations.
  void on_request_open(const probe::RequestOpen& request) override;
  void on_request_close(const probe::RequestClose& request) override;
  /// Conservation at the media boundary: a device request's first-attempt
  /// kRequest transfers must move `expected` bytes (the request size for
  /// reads, the page-rounded span for writes); ECC retries, RMW pre-reads
  /// and GC/remap traffic each go to their own bucket. Controller::submit
  /// is not re-entrant, so one transaction is open at a time.
  void on_media_begin(Bytes expected, bool internal) override;
  void on_media_transfer(Bytes bytes, MediaKind kind, std::uint32_t retries) override;
  void on_media_end(const probe::MediaDone& done) override;

 private:
  static constexpr std::size_t kMaxRecordedViolations = 32;

  /// A serially-occupied resource: a step's kind and the part of its
  /// site it occupies (channel; package port; plane), or a link's label.
  struct TrackKey {
    probe::Resource resource;
    probe::Site site;
    std::string label;
    auto operator<=>(const TrackKey&) const = default;
  };

  /// The resource's name in violation messages, as the tracer names its
  /// track.
  static std::string track_name(const TrackKey& key);

  /// A causality violation when `at` precedes `prior` in request `id`.
  void check_order(std::uint64_t id, const char* event, Time at, Time prior);

  AuditReport report_;

  // The device request the engine has open: its 0-based issue ordinal
  // (the engine's ledger id) and its issue time.
  bool request_open_ = false;
  std::uint64_t open_id_ = 0;
  Time open_issue_;

  // Current controller request (Controller::submit is not re-entrant).
  bool media_active_ = false;
  bool media_internal_ = false;
  Bytes media_expected_;
  Bytes media_matched_;

  /// Occupancy state per resource: granted intervals as a start->end
  /// map, coalesced when they touch (a union loses nothing for
  /// disjointness checking), holding only those that end after the issue
  /// watermark.
  std::map<TrackKey, std::map<std::int64_t, std::int64_t>> tracks_;

  /// Latest request issue time: no later grant may be ready before it.
  Time issue_watermark_;
};

/// The calling thread's active auditor; null when auditing is off.
inline Auditor* auditor() { return static_cast<Auditor*>(probe::slot(probe::Slot::kAudit)); }

/// Owns an Auditor and installs it on the constructing thread for its
/// lifetime (restoring any previous one). Build one per replay: the
/// CLI surface (--audit) wraps the run in a session and reads the
/// report back from ExperimentResult::audit.
class AuditSession : public probe::Session<Auditor, probe::Slot::kAudit> {
 public:
  using Session::Session;
  Auditor& auditor() { return instrument_; }
};

}  // namespace nvmooc::check
