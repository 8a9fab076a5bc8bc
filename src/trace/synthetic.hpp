// Synthetic trace generators for tests and micro-benchmarks. The real
// evaluation traces come from the OoC eigensolver (src/ooc); these cover
// the access-pattern corners the property tests sweep.
#pragma once

#include "common/random.hpp"
#include "trace/trace.hpp"

namespace nvmooc {

/// One sequential scan of [0, total) in `request_size` chunks.
Trace sequential_read_trace(Bytes total, Bytes request_size);

/// `count` uniformly random reads of `request_size` within [0, extent).
Trace random_read_trace(Bytes extent, Bytes request_size, std::size_t count, Rng& rng);

/// Strided reads: `count` requests of `request_size` advancing by
/// `stride` (wrapping within extent) — the pattern a column-major tile
/// walk produces.
Trace strided_read_trace(Bytes extent, Bytes request_size, Bytes stride, std::size_t count);

}  // namespace nvmooc
