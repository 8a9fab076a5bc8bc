// Shared-state annotation for experiment-level parallelism: independent
// experiments, each with its own engine and its own thread-local
// observer sessions, may run concurrently on a ThreadPool. The sweep
// binaries still run them serially;
// ConcurrentExperiments.PoolSweepMatchesSerialByteForByte shows that a
// pool gives the same results. Either is only sound if no mutable state
// is shared across experiments by accident.
//
// SIM_SHARD_SHARED(note) marks deliberately shared long-lived mutable
// state — process-wide singletons, thread-local install slots — and the
// note must say how access is synchronised (SL012 rejects an empty
// note). Every other mutable global, static or thread_local fails
// simlint's SL009 census, and CI diffs the regenerated inventory against
// the checked-in SHARD_REPORT.json (`simlint --shard-report`), so new
// shared state is an explicit reviewed decision.
//
// Zero runtime cost: under clang the macro expands to [[clang::annotate]]
// (visible to AST tooling); under GCC and everything else it expands to
// nothing, so codegen, layout, and replay bit-identity are unaffected.
// simlint's matcher keys on the macro text itself, so the checks do not
// depend on which compiler configured the tree. Keep notes free of
// parentheses and embedded quotes — the matcher parses them textually.
#pragma once

#if defined(__clang__)
#define SIM_SHARD_SHARED(note) [[clang::annotate("nvmooc::shard_shared=" note)]]
#else
#define SIM_SHARD_SHARED(note)
#endif
