// Flight-recorder hook slot: how layers that cannot link src/obs (the
// auditor in src/check) still feed the always-on flight recorder.
//
// The recorder itself (obs::FlightRecorder, src/obs/flight_recorder.hpp)
// lives above this library in the link graph, so the dependency is
// inverted through a minimal sink interface: the recorder implements
// Sink and installs itself thread-locally here; hook sites in check call
// flight::note(), which is one thread-local load and a branch when no
// recorder is installed — the zero-overhead-when-off contract every
// observer layer in this repo follows.
//
// Typical hook site (a violation, an abort, a rare state transition):
//   flight::note(Time{}, "audit", invariant, id, 0, detail.c_str());
//
// `category` and `what` must be string literals (or otherwise outlive
// the recorder); `detail` may be transient — sinks copy it.
#pragma once

#include <cstdint>

#include "common/shard_domain.hpp"
#include "common/units.hpp"

namespace nvmooc::flight {

/// Receiver of flight-recorder events. Implemented by obs::FlightRecorder;
/// kept abstract here so nvmooc_common never links against nvmooc_obs.
class Sink {
 public:
  virtual ~Sink() = default;
  /// One event: sim time (Time{} when the site has none), a static
  /// category/what pair, two untyped payload words, and optional
  /// transient detail text (nullptr when there is none).
  virtual void note(Time t, const char* category, const char* what,
                    std::uint64_t a, std::uint64_t b, const char* detail) = 0;
};

namespace detail {
SIM_SHARD_SHARED("thread-local install slot; FlightSession swaps it on its own thread and hook sites only dereference their own thread's pointer")
inline thread_local Sink* tls_sink = nullptr;
}  // namespace detail

/// The calling thread's active sink; null when no flight recorder is on.
inline Sink* sink() { return detail::tls_sink; }

/// Installs `s` on the current thread, returning the previous sink so the
/// installer (obs::FlightSession) can restore it.
inline Sink* install_sink(Sink* s) {
  Sink* previous = detail::tls_sink;
  detail::tls_sink = s;
  return previous;
}

/// The standard hook: one thread-local load and a branch when off.
inline void note(Time t, const char* category, const char* what,
                 std::uint64_t a = 0, std::uint64_t b = 0,
                 const char* detail_text = nullptr) {
  if (Sink* s = detail::tls_sink) s->note(t, category, what, a, b, detail_text);
}

}  // namespace nvmooc::flight
