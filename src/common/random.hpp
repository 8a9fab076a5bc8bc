// Deterministic, fast PRNG for workload synthesis and property tests.
//
// xoshiro256** (Blackman & Vigna) — chosen over std::mt19937_64 because it
// is ~4x faster, has a tiny state that copies cheaply into per-thread
// generators, and its output is identical across standard libraries, which
// keeps trace generation reproducible across toolchains.
#pragma once

#include <cstdint>

namespace nvmooc {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, bound) without modulo bias (Lemire reduction).
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Standard normal via Marsaglia polar method.
  double next_normal();

  /// Bernoulli draw with probability p of true.
  bool next_bool(double p);

  /// Exponential with the given rate (mean = 1/rate).
  double next_exponential(double rate);

  /// Zipf-distributed rank in [0, n) with exponent s (rejection sampling).
  std::uint64_t next_zipf(std::uint64_t n, double s);

 private:
  std::uint64_t state_[4];
  bool has_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace nvmooc
