// Fixture: a representative slice of idiomatic simulator code that must
// produce zero findings — guards against matcher over-reach.
#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

namespace fixture {

struct Time {
  std::int64_t ps_ = 0;
};

struct Device {
  std::map<std::uint64_t, std::uint32_t> erase_counts_;
  std::vector<Time> completions_;
};

Time ok_latest(const Device& d) {
  Time latest;
  for (const Time& t : d.completions_) {
    latest.ps_ = std::max(latest.ps_, t.ps_);
  }
  return latest;
}

std::uint64_t ok_ordered_walk(const Device& d) {
  std::uint64_t total = 0;
  for (const auto& [block, erases] : d.erase_counts_) total += erases;
  return total;
}

// Integer time arithmetic; "time" inside identifiers; timing prose in a
// string — none of these are wall-clock reads.
Time ok_media_time(Time start, int ops) { return Time{start.ps_ + ops * 50}; }
const char* ok_label() { return "wall-clock reads are banned here"; }

// Deliberately shared state, annotated: thread-local install slots and
// their RAII installers are the idiom every observer session follows.
SIM_SHARD_SHARED("install slot; each thread swaps only its own pointer")
inline thread_local int tls_ok_probe = 0;

int ok_probe() { return tls_ok_probe; }

class OkProbe {
 public:
  OkProbe() : saved_(tls_ok_probe) { tls_ok_probe = saved_ + 1; }
  ~OkProbe() { tls_ok_probe = saved_; }

 private:
  int saved_ = 0;
};

}  // namespace fixture
