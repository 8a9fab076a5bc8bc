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
//                 opens exactly once, one at a time. No timeline grant is
//                 ready before the engine's fold watermark (the latest
//                 request's issue time when one client replays).
//   occupancy     Granted timeline intervals on every serially-occupied
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
//     it — they report each grant, request stage and media transfer to
//     the probe once, and a site costs one thread-local load and a
//     branch when nobody listens. Auditing never mutates simulation
//     state, so audited replays are bit-identical to unaudited ones (CI
//     enforces this).
//  2. Per-experiment isolation: the auditor is installed thread-locally
//     (AuditSession), so concurrent replays audit independently.
//  3. Bounded memory: a resource's granted intervals that end by the
//     issue watermark are pruned, since every later grant starts at or
//     after it; audit memory tracks what is in flight, not trace length.
//
// Typical site — every Timeline grant, audited or not:
//   probe::grant(this, trace_label_, earliest, grant.start, grant.end);
// which reaches Auditor::on_interval when an auditor is installed. The
// probe is the auditor's only input; the engine and the FTL call just
// report(), violation(), ftl_checked() and replay_aborted().
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
  std::uint64_t timelines = 0;     ///< Distinct resources that granted intervals.
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

  /// Occupancy: a Timeline granted [start, end) to a reservation ready at
  /// `earliest`. Checks that `earliest` is not before the issue watermark
  /// and that the grant is disjoint from every earlier grant on the same
  /// resource (named by its label, or by first-grant order when it has
  /// none, which is deterministic).
  void on_interval(const probe::Interval& interval) override;
  /// The resource was destroyed: forget its intervals (a later
  /// object at the same address is a different resource).
  void on_release(const void* timeline) override { tracks_.erase(timeline); }
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

  /// Occupancy state for one serially-occupied resource: granted
  /// intervals as a start->end map, coalesced when they touch (a union
  /// loses nothing for disjointness checking), holding only those that
  /// end after the issue watermark.
  struct ResourceTrack {
    std::string name;
    std::map<std::int64_t, std::int64_t> intervals;
  };

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

  /// Keyed by resource address for O(log n) lookup; never iterated for
  /// output (pointer order is not deterministic), so replay stability is
  /// preserved. Names come from labels or first-grant ordinals.
  std::map<const void*, ResourceTrack> tracks_;
  std::uint64_t next_track_ordinal_ = 0;

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
