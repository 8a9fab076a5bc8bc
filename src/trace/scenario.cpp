#include "trace/scenario.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace nvmooc {

FaultConfig parse_fault_scenario(const std::string& text) {
  FaultConfig config;
  config.enabled = true;

  std::istringstream lines(text);
  std::string raw;
  std::size_t line_number = 0;
  while (std::getline(lines, raw)) {
    ++line_number;
    const std::size_t comment = raw.find('#');
    if (comment != std::string::npos) raw.resize(comment);
    std::istringstream fields(raw);
    std::vector<std::string> tokens;
    for (std::string token; fields >> token;) tokens.push_back(std::move(token));
    if (tokens.empty()) continue;  // Blank or comment-only line.

    const std::string& directive = tokens[0];
    const auto fail = [&](const std::string& why) {
      throw std::runtime_error("fault scenario line " + std::to_string(line_number) + ": " +
                               directive + ": " + why);
    };
    // Exactly `required` fields, or up to `optional` more.
    const auto arity = [&](std::size_t required, std::size_t optional, const char* usage) {
      if (tokens.size() - 1 < required) fail(std::string("missing field; want ") + usage);
      if (tokens.size() - 1 > required + optional) {
        fail("unexpected trailing '" + tokens[required + optional + 1] + "'; want " + usage);
      }
    };
    // The whole token as an integer in [0, max].
    const auto integer = [&](std::size_t i, const char* field, std::uint64_t max) {
      const std::string& token = tokens[i];
      std::uint64_t value = 0;
      const auto [end, error] = std::from_chars(token.data(), token.data() + token.size(), value);
      if (error != std::errc{} || end != token.data() + token.size() || value > max) {
        fail(std::string(field) + " '" + token + "' is not an integer in [0, " +
             std::to_string(max) + "]");
      }
      return value;
    };
    const auto u32 = [&](std::size_t i, const char* field) {
      return static_cast<std::uint32_t>(integer(i, field, UINT32_MAX));
    };
    const auto time = [&](std::size_t i, const char* field) {
      return Time{static_cast<std::int64_t>(integer(i, field, INT64_MAX))};
    };
    // The whole token as a finite number.
    const auto number = [&](std::size_t i, const char* field) {
      char* end = nullptr;
      const double value = std::strtod(tokens[i].c_str(), &end);
      if (end != tokens[i].c_str() + tokens[i].size() || !std::isfinite(value)) {
        fail(std::string(field) + " '" + tokens[i] + "' is not a finite number");
      }
      return value;
    };

    if (directive == "seed") {
      arity(1, 0, "seed <u64>");
      config.seed = integer(1, "seed", UINT64_MAX);
    } else if (directive == "rber") {
      arity(1, 0, "rber <probability in [0, 1], or -1 for the media default>");
      config.rber = number(1, "rber");
      if (config.rber != -1.0 && (config.rber < 0.0 || config.rber > 1.0)) {
        fail("rber '" + tokens[1] + "' is outside [0, 1] (and not the -1 default)");
      }
    } else if (directive == "wear_slope") {
      arity(1, 0, "wear_slope <number>");
      config.wear_slope = number(1, "wear_slope");
    } else if (directive == "stuck") {
      arity(3, 1, "stuck <channel> <package> <die> [begin_ps]");
      config.stuck_dies.push_back({u32(1, "channel"), u32(2, "package"), u32(3, "die"),
                                   tokens.size() > 4 ? time(4, "begin_ps") : Time{}});
    } else if (directive == "stall") {
      arity(3, 0, "stall <channel> <begin_ps> <duration_ps>");
      config.channel_stalls.push_back(
          {u32(1, "channel"), time(2, "begin_ps"), time(3, "duration_ps")});
    } else {
      throw std::runtime_error("fault scenario line " + std::to_string(line_number) +
                               ": unknown directive '" + directive + "'");
    }
  }
  return config;
}

FaultConfig load_fault_scenario(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("load_fault_scenario: cannot open " + path);
  std::ostringstream text;
  text << file.rdbuf();
  try {
    return parse_fault_scenario(text.str());
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

void save_fault_scenario(const FaultConfig& config, const std::string& path) {
  std::ofstream file(path);
  if (!file) throw std::runtime_error("save_fault_scenario: cannot open " + path);
  file << "# fault scenario (times in picoseconds)\n";
  file << "seed " << config.seed << "\n";
  file << "rber " << config.rber << "\n";
  file << "wear_slope " << config.wear_slope << "\n";
  for (const DieStuckFault& fault : config.stuck_dies) {
    file << "stuck " << fault.channel << " " << fault.package << " " << fault.die
         << " " << fault.begin << "\n";
  }
  for (const ChannelStallFault& fault : config.channel_stalls) {
    file << "stall " << fault.channel << " " << fault.begin << " " << fault.duration
         << "\n";
  }
}

}  // namespace nvmooc
