// Fault-scenario files: a tiny text format describing what to inject
// into a replay, so fault sweeps are driven by data (checked-in scenario
// files, generated sweeps) instead of code.
//
// Line-oriented; '#' starts a comment. Recognised directives:
//
//   seed <u64>                         RNG seed for the draw stream
//   rber <double>                      raw bit error rate (-1 = media default)
//   wear_slope <double>                RBER growth per endurance fraction
//   stuck <channel> <package> <die> [begin_ps]
//   stall <channel> <begin_ps> <duration_ps>
//
// Times are picoseconds, the simulator's native unit. Loading a scenario
// always yields an *enabled* FaultConfig — the file's existence is the
// opt-in.
//
// Parsing is strict: integers must be non-negative and in range, times
// non-negative, rber in [0, 1] or the -1 sentinel, and a line may carry
// no trailing tokens. Every rejection names the line, the directive and
// the field. Targets are checked against the device geometry when the
// device is built (Ssd's constructor).
#pragma once

#include <string>

#include "reliability/fault.hpp"

namespace nvmooc {

/// Parses scenario text. Throws std::runtime_error on a malformed line.
FaultConfig parse_fault_scenario(const std::string& text);

/// Reads and parses a scenario file; errors are prefixed with `path`.
FaultConfig load_fault_scenario(const std::string& path);
void save_fault_scenario(const FaultConfig& config, const std::string& path);

}  // namespace nvmooc
