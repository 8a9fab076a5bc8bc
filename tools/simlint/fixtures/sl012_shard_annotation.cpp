// Reject fixture: SL012 shard-annotation hygiene — shared annotations
// with a non-literal note or no synchronisation story. Not compiled;
// exercised by `simlint --self-test` only.

namespace fixture {

SIM_SHARD_SHARED(kComputedNote)  // simlint-expect: SL012
int g_dynamic_note = 0;

SIM_SHARD_SHARED("")  // simlint-expect: SL012
int g_unexplained = 0;

SIM_SHARD_SHARED("mutex")  // simlint-expect: SL012
int g_terse_note = 0;

// A well-formed annotation stays quiet.
SIM_SHARD_SHARED("guarded by the pool mutex; writers drain in-flight work first")
int g_explained = 0;

}  // namespace fixture
