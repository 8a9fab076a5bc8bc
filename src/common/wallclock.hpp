// The single sanctioned wall-clock read in the tree.
//
// Simulation code never reads the host clock (simlint SL001); the few
// places that legitimately need wall time — the trace recorder's wall
// tracks, the host-telemetry profiler, example drivers timing their own
// numeric loops — all go through this helper so every wall timestamp in
// the repo shares one monotone (steady_clock) time base and survives
// system clock adjustments.
//
// Wall instants ride in the existing Time type with *nanosecond* units,
// the convention TraceClock::kWall already established: a Time from
// now_ns() is steady-clock nanoseconds since an unspecified epoch (boot,
// on Linux), never picoseconds, and must not be mixed with simulated
// Time arithmetic. Only differences of two reads mean anything.
#pragma once

#include "common/units.hpp"

namespace nvmooc::wallclock {

/// Monotonic wall-clock nanoseconds since the steady clock's epoch.
/// Thread-safe; callers take differences.
[[nodiscard]] Time now_ns();

/// Seconds represented by a difference of now_ns() values.
[[nodiscard]] inline double to_seconds(Time wall_ns) {
  return static_cast<double>(wall_ns) * 1e-9;
}

}  // namespace nvmooc::wallclock
