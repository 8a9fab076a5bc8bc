// simreport — inspect and compare experiment/bench JSON.
//
//   simreport show FILE [--markdown]
//   simreport diff A B [--default-tol=REL] [--tol=FIELD=REL ...]
//                      [--ratio=FIELD=FACTOR ...]
//
// `show` renders a breakdown of a --result-out or BENCH_*.json file.
// `diff` compares two such files field by field: exit 0 when every
// numeric field matches within its tolerance (and all structure/strings
// match exactly), exit 1 with a per-field report otherwise, exit 2 on
// usage or I/O errors. Tolerances are relative above magnitude 1,
// absolute below (see DiffOptions in report.hpp). --ratio marks a field
// as rate-type: the values may differ by up to FACTORx (either way)
// instead of additively — for wall-clock numbers like events_per_sec.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "obs/cli.hpp"
#include "report.hpp"

namespace {

using namespace nvmooc;

const char* kUsage =
    "usage: simreport show FILE [--markdown]\n"
    "       simreport diff A B [--default-tol=REL] [--tol=FIELD=REL ...]\n"
    "                          [--ratio=FIELD=FACTOR ...]\n"
    "\n"
    "FIELD is a leaf name (\"achieved_mbps\") or a full dotted path\n"
    "(\"results.CNL-UFS/tlc.achieved_mbps\"). diff exits 0 when the files\n"
    "match within tolerance, 1 when any field regressed, 2 on bad usage.\n"
    "--ratio FIELDs pass when the values agree within a multiplicative\n"
    "FACTOR (use for machine-dependent rates like events_per_sec).\n";

bool load_json(const char* path, obs::JsonValue& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "simreport: cannot open %s\n", path);
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    out = obs::parse_json(text.str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simreport: %s: %s\n", path, e.what());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  const std::string command = argv[1];
  if (command == "show") {
    const char* path = nullptr;
    bool markdown = false;
    for (int i = 2; i < argc; ++i) {
      if (!std::strcmp(argv[i], "--markdown")) markdown = true;
      else if (path == nullptr) path = argv[i];
      else {
        std::fputs(kUsage, stderr);
        return 2;
      }
    }
    if (path == nullptr) {
      std::fputs(kUsage, stderr);
      return 2;
    }
    obs::JsonValue document;
    if (!load_json(path, document)) return 2;
    std::fputs(simreport::show(document, markdown).c_str(), stdout);
    return 0;
  }

  if (command == "diff") {
    const char* paths[2] = {nullptr, nullptr};
    int path_count = 0;
    simreport::DiffOptions options;
    // Tolerances are checked numbers: NaN (which passes every comparison),
    // garbage or a sign would silently turn a gate off.
    constexpr double kMax = std::numeric_limits<double>::max();
    for (int i = 2; i < argc; ++i) {
      const char* arg = argv[i];
      if (!std::strncmp(arg, "--default-tol=", 14)) {
        if (!obs::parse_number_flag("--default-tol", arg + 14, 0.0, kMax, options.default_tol)) {
          return 2;
        }
      } else if (!std::strncmp(arg, "--tol=", 6) || !std::strncmp(arg, "--ratio=", 8)) {
        const bool ratio = arg[2] == 'r';
        const std::string spec = arg + (ratio ? 8 : 6);
        const std::size_t equals = spec.rfind('=');
        if (equals == std::string::npos || equals == 0) {
          std::fprintf(stderr, "simreport: bad --%s '%s' (want FIELD=%s)\n",
                       ratio ? "ratio" : "tol", spec.c_str(), ratio ? "FACTOR" : "REL");
          return 2;
        }
        const std::string field = spec.substr(0, equals);
        const std::string flag = (ratio ? "--ratio=" : "--tol=") + field;
        // A factor below 1 would fail even identical values.
        const double min = ratio ? 1.0 : 0.0;
        double& slot = (ratio ? options.field_ratio : options.field_tol)[field];
        if (!obs::parse_number_flag(flag.c_str(), spec.c_str() + equals + 1, min, kMax, slot)) {
          return 2;
        }
      } else if (path_count < 2) {
        paths[path_count++] = arg;
      } else {
        std::fputs(kUsage, stderr);
        return 2;
      }
    }
    if (path_count != 2) {
      std::fputs(kUsage, stderr);
      return 2;
    }
    obs::JsonValue a;
    obs::JsonValue b;
    if (!load_json(paths[0], a) || !load_json(paths[1], b)) return 2;
    const std::vector<simreport::DiffEntry> entries = simreport::diff(a, b, options);
    std::fputs(simreport::render_diff(entries).c_str(), stdout);
    return entries.empty() ? 0 : 1;
  }

  std::fputs(kUsage, stderr);
  return 2;
}
