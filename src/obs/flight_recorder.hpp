// Always-on flight recorder: a fixed-size ring of recent events and
// completed request ledgers, cheap enough to leave on for every replay,
// dumped automatically when something goes wrong — an audit violation
// (trace_replay exit 3) or a fault-injection abort. Every future
// crash-recovery test then comes with a postmortem instead of an exit
// code.
//
// Cost model, because "always on" must stay honest (CI guards <=1%
// wall-clock on the quick headline bench, and makespans bit-identical):
//  - on_note(): two pointer-size stores and two u64 stores into a
//    preallocated ring slot; the category/what strings are required to
//    be literals, so nothing is copied. `detail` text is only carried by
//    exceptional events (violations, aborts) and is copied then.
//  - on_request_close(): one PhaseLedger copy (~128 bytes) into a preallocated
//    ring slot per completed device request.
//  - No allocation after construction, no locking (the recorder is
//    thread-local, like every observer in this repo), no simulation
//    state touched.
//
// The recorder is a probe subscriber (common/probe.hpp): every layer,
// the auditor included, leaves breadcrumbs with probe::note(), and the
// engine's closed request ledgers reach the request ring the same way —
// no site names the recorder.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/probe.hpp"
#include "common/units.hpp"
#include "obs/latency.hpp"

namespace nvmooc::obs {

/// One ring entry. `category`/`what` are static literals (never owned);
/// `detail` is empty except on violation/abort events.
struct FlightEvent {
  Time t;
  const char* category = nullptr;
  const char* what = nullptr;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::string detail;
  /// Global sequence number (0-based over the whole replay), so a dump
  /// shows how much history the ring held on to.
  std::uint64_t seq = 0;
};

/// Ring capacities. Namespace-scope (not nested) so it can be a default
/// argument below without tripping over incomplete-class NSDMI rules.
struct FlightOptions {
  std::size_t event_capacity = 4096;
  std::size_t ledger_capacity = 256;
};

class FlightRecorder final : public probe::Subscriber {
 public:
  using Options = FlightOptions;

  explicit FlightRecorder(Options options = {});

  /// One event into the ring.
  void on_note(const probe::Note& note) override;
  /// A device request completed; its ledger joins the request ring.
  void on_request_close(const probe::RequestClose& request) override;

  /// Oldest-first snapshots of the rings.
  [[nodiscard]] std::vector<FlightEvent> events() const;
  [[nodiscard]] std::vector<PhaseLedger> ledgers() const;

  /// The postmortem document: reason, ring occupancy, events, and the
  /// recent request ledgers with their full stage decomposition.
  [[nodiscard]] std::string dump_json(const std::string& reason) const;

  /// One-line occupancy summary for stderr next to the dump path.
  [[nodiscard]] std::string summary() const;

 private:
  Options options_;
  std::vector<FlightEvent> event_ring_;
  std::vector<PhaseLedger> ledger_ring_;
  std::uint64_t events_seen_ = 0;
  std::uint64_t ledgers_seen_ = 0;
};

/// Owns a FlightRecorder (constructor argument: its Options) and
/// installs it on the constructing thread. Build one per replay; the CLI
/// surfaces leave it on by default.
class FlightSession : public probe::Session<FlightRecorder, probe::Slot::kFlight> {
 public:
  using Session::Session;
  [[nodiscard]] FlightRecorder& recorder() { return instrument_; }
};

}  // namespace nvmooc::obs
