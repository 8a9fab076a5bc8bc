// Reject fixture: SL009 shard-inventory — long-lived mutable state with
// no SIM_SHARD_SHARED annotation. Not compiled; exercised by
// `simlint --self-test` only, so the annotation macro is used textually
// (the matcher keys on the macro spelling, exactly as it does in the
// real tree).

namespace fixture {

int g_hot_page_count = 0;  // simlint-expect: SL009

thread_local int tls_scratch_depth = 0;  // simlint-expect: SL009

SIM_SHARD_SHARED("guarded by the registry mutex; writers hold it for the full update")
int g_registry_epoch = 0;

// Inline annotation form: prefix on the declaration line itself.
SIM_SHARD_SHARED("relaxed atomic high-water mark; never read by sim logic") long g_watermark = 0;

int observe() {
  static int calls = 0;  // simlint-expect: SL009
  static const int limit = 64;
  static constexpr int stride = 2;
  return calls + limit + stride;
}

int bump() {
  SIM_SHARD_SHARED("monotonic diagnostics counter; relaxed increments only, never read by sim logic")
  static int bumps = 0;
  return ++bumps;
}

// A shared-annotated class lands in the report's `shared` section.
class SIM_SHARD_SHARED("mutex guards every member; instances outlive their workers") Registry {
};

// Immutable namespace-scope state needs no annotation.
const int kTableSize = 128;
constexpr int kWays = 4;

}  // namespace fixture
