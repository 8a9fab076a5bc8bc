// Fixture: SL006 request-lifecycle (profiler edge without an issue).
// This TU records causal-profiler edges for a request but never mints
// the id with request_begin(), so the ids it passes reference requests
// some other layer opened (or nothing at all) — the critical-path walk
// would either drop the edges or misattribute them. Device-side hooks
// (media_segment / timeline_busy) are exempt: they attach to the
// engine's open request by design.
#include <cstdint>

namespace fixture {

void bad_edges_without_begin(auto* prof, std::uint64_t id) {
  if (prof == nullptr) return;
  prof->request_gate(id, {0, 0, 0});       // simlint-expect: SL006
  prof->request_segment(id, 0, 0, 0, 10);  // simlint-expect: SL006
  prof->request_complete(id, 0, 0, 10, 0, 10);  // simlint-expect: SL006
  prof->media_segment(0, 0, 0, 10);  // exempt: attaches to the open request
}

}  // namespace fixture
