#include "common/random.hpp"

#include <cmath>

namespace nvmooc {
namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

// splitmix64: seeds the xoshiro state so that nearby seeds give unrelated
// streams.
std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  if (bound == 0) return 0;
  // Lemire's multiply-then-reject reduction.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::next_double() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::next_normal() {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u, v, s;
  do {
    u = 2.0 * next_double() - 1.0;
    v = 2.0 * next_double() - 1.0;
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_normal_ = true;
  return u * factor;
}

bool Rng::next_bool(double p) { return next_double() < p; }

double Rng::next_exponential(double rate) {
  // Guard against log(0).
  double u = next_double();
  if (u <= 0.0) u = 0x1.0p-53;
  return -std::log(u) / rate;
}

std::uint64_t Rng::next_zipf(std::uint64_t n, double s) {
  // Rejection-inversion sampling (Hormann & Derflinger) simplified: for the
  // modest n used in workload synthesis a direct inverse-CDF walk over a
  // harmonic approximation suffices and stays O(1) per draw.
  if (n <= 1) return 0;
  const double nd = static_cast<double>(n);
  if (s == 1.0) {
    const double h = std::log(nd);
    const double u = next_double();
    return static_cast<std::uint64_t>(std::exp(u * h)) - 1;
  }
  const double one_minus_s = 1.0 - s;
  const double h_n = (std::pow(nd, one_minus_s) - 1.0) / one_minus_s;
  const double u = next_double();
  const double x = std::pow(u * h_n * one_minus_s + 1.0, 1.0 / one_minus_s);
  std::uint64_t rank = static_cast<std::uint64_t>(x);
  if (rank >= n) rank = n - 1;
  return rank;
}

}  // namespace nvmooc
