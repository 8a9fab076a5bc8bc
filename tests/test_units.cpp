// Tests for the strong Time/Bytes unit types (src/common/units.hpp).
//
// Two kinds of guarantees are pinned here:
//   1. Compile-time: dimensional mixups (raw int -> Time, double -> Time,
//      Time + Bytes, ...) must not compile. Proven with static_asserts
//      over type traits and detection idioms — a regression turns into a
//      compile failure of this TU, which CI treats like any other error.
//   2. Run-time: transfer_time() computes an exact integer ceiling, and
//      replay is environment-order independent.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/configs.hpp"
#include "cluster/engine.hpp"
#include "cluster/experiment.hpp"
#include "common/units.hpp"
#include "trace/synthetic.hpp"

namespace nvmooc {
namespace {

// ---------------------------------------------------------------------------
// Compile-fail proofs. Each assert documents a mixup the old `using Time =
// std::int64_t` alias silently accepted.

// Raw integers no longer convert implicitly; construction must be spelled.
static_assert(!std::is_convertible_v<int, Time>);
static_assert(!std::is_convertible_v<std::int64_t, Time>);
static_assert(!std::is_convertible_v<unsigned long long, Bytes>);
static_assert(std::is_constructible_v<Time, int>);
static_assert(std::is_constructible_v<Bytes, std::size_t>);

// Floating point cannot construct Time at all — not even explicitly.
// from_seconds() is the single sanctioned conversion.
static_assert(!std::is_constructible_v<Time, double>);
static_assert(!std::is_constructible_v<Time, float>);

// Units do not cross-convert.
static_assert(!std::is_convertible_v<Time, Bytes>);
static_assert(!std::is_convertible_v<Bytes, Time>);
static_assert(!std::is_constructible_v<Time, Bytes>);
static_assert(!std::is_constructible_v<Bytes, Time>);

// Reading a value back out requires an explicit accessor or cast.
static_assert(!std::is_convertible_v<Time, std::int64_t>);
static_assert(!std::is_convertible_v<Bytes, std::uint64_t>);

// Detection idiom: `a + b` (and friends) must be ill-formed for
// dimensionally nonsensical operand pairs.
template <typename A, typename B, typename = void>
struct CanAdd : std::false_type {};
template <typename A, typename B>
struct CanAdd<A, B, std::void_t<decltype(std::declval<A>() + std::declval<B>())>>
    : std::true_type {};

template <typename A, typename B, typename = void>
struct CanMultiply : std::false_type {};
template <typename A, typename B>
struct CanMultiply<A, B, std::void_t<decltype(std::declval<A>() * std::declval<B>())>>
    : std::true_type {};

template <typename A, typename B, typename = void>
struct CanCompare : std::false_type {};
template <typename A, typename B>
struct CanCompare<A, B, std::void_t<decltype(std::declval<A>() < std::declval<B>())>>
    : std::true_type {};

static_assert(CanAdd<Time, Time>::value);
static_assert(CanAdd<Bytes, Bytes>::value);
static_assert(!CanAdd<Time, Bytes>::value);   // seconds + bytes: nonsense
static_assert(!CanAdd<Bytes, Time>::value);
static_assert(!CanAdd<Time, int>::value);     // unit + raw count: spell the unit
static_assert(!CanAdd<int, Time>::value);
static_assert(!CanAdd<Bytes, int>::value);

static_assert(CanMultiply<Time, int>::value);  // scaling by a count is fine
static_assert(CanMultiply<int, Bytes>::value);
static_assert(!CanMultiply<Time, Time>::value);   // seconds^2 has no meaning here
static_assert(!CanMultiply<Bytes, Bytes>::value);
static_assert(!CanMultiply<Time, Bytes>::value);
static_assert(!CanMultiply<Time, double>::value);  // float scaling must be explicit

static_assert(CanCompare<Time, Time>::value);
static_assert(!CanCompare<Time, Bytes>::value);
static_assert(!CanCompare<Time, int>::value);

// Division is dimensional: T/T is a pure count, T/int is T.
static_assert(std::is_same_v<decltype(std::declval<Time>() / std::declval<Time>()),
                             std::int64_t>);
static_assert(std::is_same_v<decltype(std::declval<Bytes>() / std::declval<Bytes>()),
                             std::uint64_t>);
static_assert(std::is_same_v<decltype(std::declval<Time>() / 4), Time>);
static_assert(std::is_same_v<decltype(std::declval<Bytes>() % std::declval<Bytes>()),
                             Bytes>);

// ---------------------------------------------------------------------------
// Run-time arithmetic sanity.

TEST(Units, ConstantsCompose) {
  EXPECT_EQ(kMicrosecond, 1000 * kNanosecond);
  EXPECT_EQ(kSecond, 1'000'000 * kMicrosecond);
  EXPECT_EQ(MiB, 1024 * KiB);
  EXPECT_EQ((GiB / MiB), 1024u);
}

TEST(Units, RoundTripAccessors) {
  const Time t{123'456'789};
  EXPECT_EQ(t.ps(), 123'456'789);
  EXPECT_EQ(Time{t.ps()}, t);
  const Bytes b{987'654};
  EXPECT_EQ(b.value(), 987'654u);
}

TEST(Units, FromSecondsRounds) {
  EXPECT_EQ(from_seconds(1.0), kSecond);
  EXPECT_EQ(from_seconds(0.5e-6), Time{500'000});  // 0.5 us in ps
  EXPECT_EQ(to_seconds(kSecond), 1.0);
}

// ---------------------------------------------------------------------------
// transfer_time(): exact integer ceiling of bytes / rate, in picoseconds.
// The old implementation added 0.999999 before truncating — a pseudo-ceil
// that undershoots when the fractional part is below 1e-6 and overshoots
// on exact quotients.

TEST(TransferTime, ExactQuotientIsNotBumped) {
  // 1 byte at 1 GB/s is exactly 1 ns: ceil(1000) == 1000, the +0.999999
  // pseudo-ceiling would have been right here only by truncation luck;
  // an exact quotient must stay exact.
  EXPECT_EQ(transfer_time(Bytes{1}, 1e9), kNanosecond);
  // 4096 B at 4096 GB/s = exactly 1 ns.
  EXPECT_EQ(transfer_time(Bytes{4096}, 4096e9), kNanosecond);
  // 1 GiB at 1 GiB/s = exactly 1 s.
  EXPECT_EQ(transfer_time(GiB, static_cast<double>(GiB)), kSecond);
}

TEST(TransferTime, TinyFractionStillCeils) {
  // 10^12 + 1 bytes at 10^12 B/s: true time is 1 s + 1 ps. The fractional
  // part (1e-12) is far below the old 0.999999 fudge, which truncated to
  // exactly 1 s — undershooting the physically required time.
  const Bytes payload{1'000'000'000'001ULL};
  EXPECT_EQ(transfer_time(payload, 1e12), kSecond + kPicosecond);
}

TEST(TransferTime, NeverUndershoots) {
  // ceil(q) * rate >= bytes must hold for every checked pair: the modeled
  // wire cannot move bytes faster than its rate.
  const double rates[] = {1.0, 3.0, 7.5e3, 1e6, 400e6, 2.5e9, 1e12, 9.9e13};
  const Bytes sizes[] = {Bytes{1},       Bytes{511},        Bytes{4096},
                         Bytes{123'457}, 64 * KiB,          3 * MiB,
                         GiB,            Bytes{0xFFFFFFFFu}};
  for (double rate : rates) {
    for (Bytes size : sizes) {
      const Time t = transfer_time(size, rate);
      // Transfers longer than int64 picoseconds (~107 days) saturate at
      // Time::max() by design; the tight-ceiling invariant applies only
      // to representable results.
      if (t == Time::max()) continue;
      const double seconds = to_seconds(t);
      EXPECT_GE(seconds * rate, static_cast<double>(size) * (1.0 - 1e-9))
          << "undershoot: " << size.value() << " B @ " << rate << " B/s";
      // And it is a *tight* ceiling: one ps less would undershoot.
      if (t > kPicosecond) {
        const double less = to_seconds(t - kPicosecond);
        EXPECT_LT(less * rate, static_cast<double>(size) * (1.0 + 1e-9))
            << "slack: " << size.value() << " B @ " << rate << " B/s";
      }
    }
  }
}

TEST(TransferTime, HugeTransfersSaturate) {
  // bytes * 1e12 overflows int64 picoseconds -> saturate, don't wrap.
  EXPECT_EQ(transfer_time(Bytes{std::numeric_limits<std::uint64_t>::max()}, 1.0),
            Time::max());
  EXPECT_EQ(transfer_time(GiB, 1e-30), Time::max());
}

// The loop transfer_time() used before it read the rate's bits directly:
// halve or double the rate into [2^52, 2^53), then shift the numerator up
// one bit at a time. Kept as the oracle for the O(1) decomposition.
Time reference_transfer_time(Bytes bytes, double bytes_per_second) {
  if (bytes_per_second <= 0.0 || bytes == Bytes{}) return Time{};
  if (!(bytes_per_second <= std::numeric_limits<double>::max())) return Time{};
  double frac = bytes_per_second;
  int shift = 0;
  while (frac >= 9007199254740992.0) {  // 2^53
    frac /= 2.0;
    ++shift;
  }
  while (frac < 4503599627370496.0) {  // 2^52
    frac *= 2.0;
    --shift;
  }
  const std::uint64_t mant = static_cast<std::uint64_t>(frac);
  unsigned __int128 num = static_cast<unsigned __int128>(bytes.value()) *
                          static_cast<unsigned __int128>(kSecond.ps());
  unsigned __int128 den = mant;
  if (shift >= 0) {
    if (shift >= 75) return kPicosecond;
    den <<= shift;
  } else {
    int up = -shift;
    while (up > 0 && num < (static_cast<unsigned __int128>(1) << 127)) {
      num <<= 1;
      --up;
    }
    if (up > 0) return Time::max();
  }
  const unsigned __int128 q = num / den;
  const unsigned __int128 ceil_q = q + ((q * den < num) ? 1 : 0);
  constexpr unsigned __int128 kMaxTime =
      static_cast<unsigned __int128>(std::numeric_limits<std::int64_t>::max());
  if (ceil_q >= kMaxTime) return Time::max();
  return Time{static_cast<std::int64_t>(ceil_q)};
}

// Differential: the bit_cast decomposition gives the loop's answer, to
// the picosecond, on fixed edges and on 1M seeded random (size, rate)
// pairs: half raw bit patterns over every finite positive double
// (subnormals included), half rates and sizes in the ranges the
// simulator's buses and links use.
TEST(TransferTime, MatchesLoopReference) {
  const double rates[] = {std::numeric_limits<double>::denorm_min(),
                          3 * std::numeric_limits<double>::denorm_min(),
                          std::nextafter(std::numeric_limits<double>::min(), 0.0),
                          std::numeric_limits<double>::min(),
                          1e-300,
                          1e-30,
                          0.5,
                          1.0,
                          4503599627370496.0,  // 2^52
                          std::nextafter(9007199254740992.0, 0.0),
                          9007199254740992.0,  // 2^53
                          400e6,
                          1.6e9,
                          985e6 * 16 / 8.0,
                          9.9e13,
                          1e300,
                          std::numeric_limits<double>::max()};
  const Bytes sizes[] = {Bytes{1},         Bytes{64},      Bytes{511},
                         2 * KiB,          4 * KiB,        8 * MiB,
                         Bytes{0xFFFFFFFFu}, Bytes{1ULL << 44},
                         Bytes{std::numeric_limits<std::uint64_t>::max() / 1'000'000},
                         Bytes{std::numeric_limits<std::uint64_t>::max()}};
  for (const double rate : rates) {
    for (const Bytes size : sizes) {
      EXPECT_EQ(transfer_time(size, rate), reference_transfer_time(size, rate))
          << size.value() << " B @ " << rate << " B/s";
    }
  }

  std::uint64_t state = 0x2545f4914f6cdd1dULL;
  const auto draw = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  constexpr int kPairs = 1'000'000;
  int mismatches = 0;
  for (int i = 0; i < kPairs; ++i) {
    double rate = 0.0;
    Bytes size;
    if (i % 2 == 0) {
      // Any finite positive double: sign 0, exponent below all-ones.
      std::uint64_t bits = 0;
      do {
        bits = draw() >> 1;
      } while ((bits >> 52) == 0x7ff || bits == 0);
      rate = std::bit_cast<double>(bits);
      size = Bytes{draw() >> (draw() % 64)};
    } else {
      // 1 B/s to 100 TB/s, and up to 4 GiB.
      const double fraction = static_cast<double>(draw() >> 11) * 0x1p-53;
      rate = std::ldexp(1.0 + fraction, static_cast<int>(draw() % 47));
      size = Bytes{draw() >> (32 + draw() % 32)};
    }
    if (size == Bytes{}) size = Bytes{1};
    if (transfer_time(size, rate) != reference_transfer_time(size, rate) && ++mismatches <= 5) {
      ADD_FAILURE() << size.value() << " B @ " << rate << " B/s: "
                    << transfer_time(size, rate) << " != "
                    << reference_transfer_time(size, rate);
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << kPairs << " random pairs";
}

TEST(TransferTime, DegenerateInputs) {
  EXPECT_EQ(transfer_time(Bytes{}, 1e9), Time{});
  EXPECT_EQ(transfer_time(Bytes{100}, 0.0), Time{});
  EXPECT_EQ(transfer_time(Bytes{100}, -5.0), Time{});
  EXPECT_EQ(transfer_time(Bytes{100}, std::numeric_limits<double>::infinity()),
            Time{});
}

// ---------------------------------------------------------------------------
// Replay determinism: the simulator's headline contract. Two experiment
// runs in the same process — with a pile of heap and hash-table churn
// between them to shift allocator state and hash seeds — must serialize
// to byte-identical JSON.

TEST(Determinism, ReplayIsEnvironmentOrderIndependent) {
  const ExperimentConfig config = cnl_ufs_config(NvmType::kTlc);
  const Trace trace = sequential_read_trace(32 * MiB, 256 * KiB);

  const ExperimentResult first = run_experiment(config, trace);

  // Perturb the environment: allocations of varying sizes and an
  // unordered_map grown to a different bucket count. If any sim state
  // leaked through pointers or hash iteration, the replay would drift.
  std::vector<std::vector<char>> churn;
  for (int i = 1; i < 64; ++i) churn.emplace_back(static_cast<std::size_t>(i) * 977);
  std::unordered_map<std::uint64_t, std::uint64_t> noise;
  for (std::uint64_t i = 0; i < 10'000; ++i) noise[i * 2654435761ULL] = i;
  ASSERT_EQ(noise.size(), 10'000u);

  const ExperimentResult second = run_experiment(config, trace);
  EXPECT_EQ(first.to_json(), second.to_json());
  EXPECT_EQ(first.makespan, second.makespan);
}

}  // namespace
}  // namespace nvmooc
