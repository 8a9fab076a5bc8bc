// Fixture: SL006 request-lifecycle (probe close without an open). The
// auditor and the profiler take a request's lifecycle from the probe:
// request_open() issues it (audit id, profiler request, gates) and
// request_close() completes it. A TU that closes requests it never
// opened hands every subscriber a completion with no issue — phantom
// causality violations and edges the critical-path walk cannot place.
// Subscriber hooks (on_request_close) are not emissions and are exempt.
#include <cstdint>

namespace fixture {

void bad_close_without_open(auto& probe_api, auto done) {
  probe_api.request_close(done);  // simlint-expect: SL006
}

struct Listener {
  void on_request_close(std::uint64_t id) { last_ = id; }  // exempt: a hook
  std::uint64_t last_ = 0;
};

}  // namespace fixture
