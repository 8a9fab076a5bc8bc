#include "trace/trace.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>


namespace nvmooc {

Bytes Trace::extent() const {
  Bytes end;
  for (const PosixRequest& request : requests_) {
    end = std::max(end, request.offset + request.size);
  }
  return end;
}

TraceStats Trace::stats() const {
  TraceStats stats;
  stats.requests = requests_.size();
  if (requests_.empty()) return stats;

  stats.min_request = requests_.front().size;
  Bytes previous_end;
  std::uint64_t sequential = 0;
  bool first = true;
  for (const PosixRequest& request : requests_) {
    stats.total_bytes += request.size;
    if (request.op == NvmOp::kRead) {
      stats.read_bytes += request.size;
    } else {
      stats.write_bytes += request.size;
    }
    stats.min_request = std::min(stats.min_request, request.size);
    stats.max_request = std::max(stats.max_request, request.size);
    if (!first && request.offset == previous_end) ++sequential;
    previous_end = request.offset + request.size;
    first = false;
  }
  stats.read_fraction =
      stats.total_bytes != Bytes{}
          ? static_cast<double>(stats.read_bytes) / static_cast<double>(stats.total_bytes)
          : 1.0;
  stats.sequentiality = requests_.size() > 1
                            ? static_cast<double>(sequential) / (requests_.size() - 1)
                            : 1.0;
  stats.mean_request = static_cast<double>(stats.total_bytes) / requests_.size();
  return stats;
}

void Trace::save(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (!file) throw std::runtime_error("Trace::save: cannot open " + path);
  for (const PosixRequest& request : requests_) {
    std::fprintf(file, "%c %llu %llu %lld%s\n", request.op == NvmOp::kRead ? 'R' : 'W',
                 static_cast<unsigned long long>(request.offset.value()),
                 static_cast<unsigned long long>(request.size.value()),
                 static_cast<long long>(request.not_before.ps()),
                 request.barrier ? " 1" : "");
  }
  std::fclose(file);
}

Trace Trace::load(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw std::runtime_error("Trace::load: cannot open " + path);
  Trace trace;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(file, line)) {
    ++lineno;
    const auto fail = [&](const std::string& what) {
      throw std::runtime_error("Trace::load: " + path + ":" + std::to_string(lineno) +
                               ": " + what);
    };
    std::istringstream fields(line);
    std::vector<std::string> tokens;
    for (std::string token; fields >> token;) tokens.push_back(token);
    if (tokens.empty()) continue;
    if (tokens.size() < 4) {
      fail("expected 'op offset size not_before [barrier]', got " +
           std::to_string(tokens.size()) + " field(s)");
    }
    if (tokens.size() > 5) fail("trailing garbage '" + tokens[5] + "'");
    if (tokens[0] != "R" && tokens[0] != "W") fail("bad op '" + tokens[0] + "'");
    // Digits only (no sign, no suffix) and no overflow.
    const auto number = [&](std::size_t index, const char* field) {
      const std::string& token = tokens[index];
      errno = 0;
      char* end = nullptr;
      const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
      if (!std::isdigit(static_cast<unsigned char>(token[0])) || *end != '\0' ||
          errno == ERANGE) {
        fail(std::string("bad ") + field + " '" + token + "'");
      }
      return value;
    };
    const unsigned long long offset = number(1, "offset");
    const unsigned long long size = number(2, "size");
    const unsigned long long not_before = number(3, "not_before");
    if (not_before > static_cast<unsigned long long>(INT64_MAX)) {
      fail("bad not_before '" + tokens[3] + "'");
    }
    bool barrier = false;
    if (tokens.size() == 5) {
      if (tokens[4] != "0" && tokens[4] != "1") fail("bad barrier '" + tokens[4] + "'");
      barrier = tokens[4] == "1";
    }
    trace.add(tokens[0] == "W" ? NvmOp::kWrite : NvmOp::kRead, Bytes{offset},
              Bytes{size}, Time{static_cast<std::int64_t>(not_before)}, barrier);
  }
  return trace;
}

}  // namespace nvmooc
