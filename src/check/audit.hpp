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
//   causality     Per-request event chains (issued -> admitted ->
//                 dispatched -> media -> completed) are monotone in sim
//                 time, every request completes exactly once, and no
//                 completion precedes its issue. No timeline grant is
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
// and the subscriber side (Auditor::on_interval):
//   timeline_reserved(interval.object, *interval.label, interval.earliest,
//                     interval.start, interval.end);
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

  // -- engine hooks (OoC / FS boundary, per-request causality) ----------

  /// One application (POSIX) request entered the replay.
  void posix_request(Bytes size);

  /// The FS/UFS expanded one POSIX request into device requests carrying
  /// `payload` non-internal and `internal` journal/metadata bytes.
  /// Checks payload == posix_bytes: an I/O path must neither drop nor
  /// invent application bytes.
  void io_path_grant(Bytes posix_bytes, Bytes payload, Bytes internal);

  /// A device request became ready; returns its audit id. The chain must
  /// then advance admitted -> dispatched -> media -> completed, each
  /// monotone in sim time.
  [[nodiscard]] std::uint64_t request_issued(Time ready);
  void request_admitted(std::uint64_t id, Time admit);
  void request_dispatched(std::uint64_t id, Time issue);
  void request_media(std::uint64_t id, Time begin, Time end);
  void request_completed(std::uint64_t id, Time completion);

  /// The replay aborted; aggregate byte equality is no longer expected.
  void replay_aborted();

  // -- controller hooks (media boundary) --------------------------------

  /// A device request reached the controller. `expected_bytes` is what
  /// its first-attempt channel transfers must sum to: the request size
  /// for reads, the page-rounded span for writes (programs move whole
  /// pages). Ends with media_request_end(), which enforces the equality.
  void media_request_begin(Bytes expected_bytes, bool internal);
  /// One transaction moved `bytes` over a channel (first attempt);
  /// `retries` extra ECC-ladder attempts re-transferred the same bytes.
  void media_transfer(Bytes bytes, MediaKind kind, std::uint32_t retries);
  void media_request_end();

  // -- timeline hooks (occupancy) ---------------------------------------

  /// Resource `timeline` granted [start, end) to a reservation ready at
  /// `earliest`; `label` names it when the owner set one (unlabelled
  /// resources are named by first-grant order, which is deterministic).
  /// Checks that `earliest` is not before the issue watermark and that
  /// the grant is disjoint from every earlier grant on the same resource.
  void timeline_reserved(const void* timeline, const std::string& label, Time earliest,
                         Time start, Time end);
  /// The resource was reset or destroyed: forget its intervals (a later
  /// object at the same address is a different resource).
  void timeline_released(const void* timeline);

  // -- ftl hooks --------------------------------------------------------

  /// A mapping check ran (incremental or full sweep); bumps the counter
  /// that proves FTL auditing was active.
  void ftl_checked() { ++report_.ftl_checks; }

  /// Records a broken invariant. Also used directly by layer-owned
  /// checks (the FTL verifies its own maps and reports here).
  void violation(const char* invariant, std::string detail);

  /// Snapshot of the report with end-of-replay checks applied (aggregate
  /// byte conservation, no request left incomplete). Pure: calling it
  /// twice yields the same result.
  [[nodiscard]] AuditReport report() const;

  [[nodiscard]] std::uint64_t violation_count() const {
    return report_.violation_count;
  }

  // -- probe subscription: the hooks above, fed by the probe stream -----
  void on_interval(const probe::Interval& interval) override;
  void on_release(const void* timeline) override { timeline_released(timeline); }
  void on_posix(const probe::Posix& posix) override;
  void on_request_open(const probe::RequestOpen& request) override;
  void on_request_close(const probe::RequestClose& request) override;
  void on_media_begin(Bytes expected, bool internal) override {
    media_request_begin(expected, internal);
  }
  void on_media_transfer(Bytes bytes, MediaKind kind, std::uint32_t retries) override {
    media_transfer(bytes, kind, retries);
  }
  void on_media_end(const probe::MediaDone& /*done*/) override { media_request_end(); }

 private:
  static constexpr std::size_t kMaxRecordedViolations = 32;

  /// Request lifecycle stages, in causal order.
  enum class Stage : std::uint8_t {
    kIssued = 0,
    kAdmitted = 1,
    kDispatched = 2,
    kMedia = 3,
    kCompleted = 4,
  };
  struct RequestState {
    Stage stage = Stage::kIssued;
    Time last;  ///< Sim time of the latest event in the chain.
  };

  /// Occupancy state for one serially-occupied resource: granted
  /// intervals as a start->end map, coalesced when they touch (a union
  /// loses nothing for disjointness checking), holding only those that
  /// end after the issue watermark.
  struct ResourceTrack {
    std::string name;
    std::map<std::int64_t, std::int64_t> intervals;
  };

  void advance(std::uint64_t id, Stage expected_from, Stage to, Time at,
               const char* event);

  AuditReport report_;
  std::vector<RequestState> requests_;

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

  /// Audit id of the device request the engine has open.
  std::uint64_t open_request_ = 0;
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
