// Core unit types and constants shared across the simulator.
//
// All simulation time is kept in integer picoseconds so that bus cycles at
// sub-nanosecond granularity (e.g. one PCIe 3.0 symbol) never lose
// precision and time arithmetic stays exact and associative regardless of
// the order in which parallel sweeps accumulate intervals.
//
// `Time` and `Bytes` are *strong* types rather than integer aliases: they
// construct only explicitly, they never mix with each other, and a
// floating-point value cannot become a `Time` except through
// `from_seconds()`. The dimensional rules the compiler enforces:
//
//   Time  + Time  -> Time        Bytes + Bytes -> Bytes
//   Time  - Time  -> Time        Bytes - Bytes -> Bytes
//   Time  * int   -> Time        Bytes * int   -> Bytes
//   Time  / int   -> Time        Bytes / int   -> Bytes
//   Time  / Time  -> int64       Bytes / Bytes -> uint64   (a pure count)
//   Time  % Time  -> Time        Bytes % Bytes -> Bytes    (a remainder)
//   Bytes / Time  -> bandwidth_mbps() / bytes_per_second() helpers only
//
// Anything else (Time + Bytes, Time + 5, double -> Time, ...) is a compile
// error. tests/test_units.cpp pins these rules with type traits, and
// tools/simlint rejects attempts to launder floats through raw `.ps()` /
// `.count()` round-trips.
#pragma once

#include <bit>
#include <compare>
#include <concepts>
#include <cstdint>
#include <functional>
#include <limits>
#include <istream>
#include <ostream>

namespace nvmooc {

namespace unit_detail {
// bool arithmetic on units is always a bug, so exclude it from the
// integral operands the wrappers accept.
template <typename T>
concept UnitInteger = std::integral<T> && !std::same_as<std::remove_cv_t<T>, bool>;
}  // namespace unit_detail

/// Simulation time in integer picoseconds.
class Time {
 public:
  constexpr Time() = default;

  /// Explicit construction from a raw picosecond count.
  template <unit_detail::UnitInteger I>
  explicit constexpr Time(I picoseconds) : ps_(static_cast<std::int64_t>(picoseconds)) {}

  /// Floating-point values must go through from_seconds() so rounding is
  /// a visible, deliberate act.
  template <std::floating_point F>
  Time(F) = delete;

  /// Raw picosecond count (for serialisation and unit edges only).
  constexpr std::int64_t ps() const { return ps_; }

  /// Picoseconds as a double, for throughput/ratio math at the edges.
  explicit constexpr operator double() const { return static_cast<double>(ps_); }

  [[nodiscard]]
  static constexpr Time max() { return Time{std::numeric_limits<std::int64_t>::max()}; }

  constexpr auto operator<=>(const Time&) const = default;

  constexpr Time operator-() const { return Time{-ps_}; }

  constexpr Time& operator+=(Time other) {
    ps_ += other.ps_;
    return *this;
  }
  constexpr Time& operator-=(Time other) {
    ps_ -= other.ps_;
    return *this;
  }
  template <unit_detail::UnitInteger I>
  constexpr Time& operator*=(I factor) {
    ps_ *= static_cast<std::int64_t>(factor);
    return *this;
  }
  template <unit_detail::UnitInteger I>
  constexpr Time& operator/=(I divisor) {
    ps_ /= static_cast<std::int64_t>(divisor);
    return *this;
  }

  friend constexpr Time operator+(Time a, Time b) { return Time{a.ps_ + b.ps_}; }
  friend constexpr Time operator-(Time a, Time b) { return Time{a.ps_ - b.ps_}; }
  template <unit_detail::UnitInteger I>
  friend constexpr Time operator*(Time t, I factor) {
    return Time{t.ps_ * static_cast<std::int64_t>(factor)};
  }
  template <unit_detail::UnitInteger I>
  friend constexpr Time operator*(I factor, Time t) {
    return Time{static_cast<std::int64_t>(factor) * t.ps_};
  }
  template <unit_detail::UnitInteger I>
  friend constexpr Time operator/(Time t, I divisor) {
    return Time{t.ps_ / static_cast<std::int64_t>(divisor)};
  }
  /// How many `b`-sized intervals fit in `a` (truncating) — a pure count.
  friend constexpr std::int64_t operator/(Time a, Time b) { return a.ps_ / b.ps_; }
  friend constexpr Time operator%(Time a, Time b) { return Time{a.ps_ % b.ps_}; }

  constexpr Time& operator%=(Time other) {
    ps_ %= other.ps_;
    return *this;
  }

  friend std::ostream& operator<<(std::ostream& os, Time t) { return os << t.ps_; }
  /// Reads a raw picosecond count (trace/scenario file parsing).
  friend std::istream& operator>>(std::istream& is, Time& t) { return is >> t.ps_; }

 private:
  std::int64_t ps_ = 0;
};

/// Byte counts and device addresses.
class Bytes {
 public:
  constexpr Bytes() = default;

  template <unit_detail::UnitInteger I>
  explicit constexpr Bytes(I count) : n_(static_cast<std::uint64_t>(count)) {}

  /// A fractional byte count is always a modelling error upstream.
  template <std::floating_point F>
  Bytes(F) = delete;

  /// Raw byte count (for serialisation and unit edges only).
  constexpr std::uint64_t value() const { return n_; }

  /// Byte count as a double, for bandwidth math at the edges.
  explicit constexpr operator double() const { return static_cast<double>(n_); }

  [[nodiscard]]
  static constexpr Bytes max() { return Bytes{std::numeric_limits<std::uint64_t>::max()}; }

  constexpr auto operator<=>(const Bytes&) const = default;

  constexpr Bytes& operator+=(Bytes other) {
    n_ += other.n_;
    return *this;
  }
  constexpr Bytes& operator-=(Bytes other) {
    n_ -= other.n_;
    return *this;
  }
  template <unit_detail::UnitInteger I>
  constexpr Bytes& operator*=(I factor) {
    n_ *= static_cast<std::uint64_t>(factor);
    return *this;
  }
  template <unit_detail::UnitInteger I>
  constexpr Bytes& operator/=(I divisor) {
    n_ /= static_cast<std::uint64_t>(divisor);
    return *this;
  }

  friend constexpr Bytes operator+(Bytes a, Bytes b) { return Bytes{a.n_ + b.n_}; }
  friend constexpr Bytes operator-(Bytes a, Bytes b) { return Bytes{a.n_ - b.n_}; }
  template <unit_detail::UnitInteger I>
  friend constexpr Bytes operator*(Bytes b, I factor) {
    return Bytes{b.n_ * static_cast<std::uint64_t>(factor)};
  }
  template <unit_detail::UnitInteger I>
  friend constexpr Bytes operator*(I factor, Bytes b) {
    return Bytes{static_cast<std::uint64_t>(factor) * b.n_};
  }
  template <unit_detail::UnitInteger I>
  friend constexpr Bytes operator/(Bytes b, I divisor) {
    return Bytes{b.n_ / static_cast<std::uint64_t>(divisor)};
  }
  /// How many `b`-sized units fit in `a` (truncating) — a pure count,
  /// so it can index arrays and count pages without a cast.
  friend constexpr std::uint64_t operator/(Bytes a, Bytes b) { return a.n_ / b.n_; }
  friend constexpr Bytes operator%(Bytes a, Bytes b) { return Bytes{a.n_ % b.n_}; }

  constexpr Bytes& operator%=(Bytes other) {
    n_ %= other.n_;
    return *this;
  }

  friend std::ostream& operator<<(std::ostream& os, Bytes b) { return os << b.n_; }
  /// Reads a raw byte count (trace/scenario file parsing).
  friend std::istream& operator>>(std::istream& is, Bytes& b) { return is >> b.n_; }

 private:
  std::uint64_t n_ = 0;
};

// -- time constants -----------------------------------------------------
inline constexpr Time kPicosecond{1};
inline constexpr Time kNanosecond{1'000};
inline constexpr Time kMicrosecond{1'000'000};
inline constexpr Time kMillisecond{1'000'000'000};
inline constexpr Time kSecond{1'000'000'000'000};

// -- size constants ------------------------------------------------------
inline constexpr Bytes KiB{1024};
inline constexpr Bytes MiB = 1024 * KiB;
inline constexpr Bytes GiB = 1024 * MiB;

/// Decimal units, used when quoting link rates (vendors quote GB/s = 1e9).
inline constexpr Bytes KB{1000};
inline constexpr Bytes MB = 1000 * KB;
inline constexpr Bytes GB = 1000 * MB;

/// Converts a duration in picoseconds to (floating) seconds.
constexpr double to_seconds(Time t) {
  return static_cast<double>(t) / static_cast<double>(kSecond);
}

/// Converts seconds to simulation Time, rounding to the nearest picosecond.
/// This is the only sanctioned float -> Time conversion.
[[nodiscard]] constexpr Time from_seconds(double s) {
  return Time{static_cast<std::int64_t>(s * static_cast<double>(kSecond) + 0.5)};
}

/// Bandwidth in MB/s (decimal, as the paper's figures use) given bytes
/// moved over a duration. Returns 0 for a zero-length interval.
constexpr double bandwidth_mbps(Bytes bytes, Time duration) {
  if (duration <= Time{}) return 0.0;
  return (static_cast<double>(bytes) / static_cast<double>(MB)) / to_seconds(duration);
}

/// Average rate in bytes/second over a duration (0 for empty intervals).
constexpr double bytes_per_second(Bytes bytes, Time duration) {
  if (duration <= Time{}) return 0.0;
  return static_cast<double>(bytes) / to_seconds(duration);
}

/// Time to move `bytes` at `bytes_per_second`, rounded up to a picosecond.
///
/// The round-up is an *exact* integer ceiling of bytes * 1e12 / rate: the
/// rate double is read as its exact mantissa/exponent pair (bit_cast, so
/// O(1) and subnormals included) and the quotient is taken in 128-bit
/// integer arithmetic, so the result never under- or over-shoots by a
/// picosecond the way a `+0.999999` fudge term can, and huge transfers
/// saturate at Time::max() instead of overflowing. Every link transfer
/// and every media transaction calls this, so it does no loops.
[[nodiscard]] constexpr Time transfer_time(Bytes bytes, double bytes_per_second) {
  if (bytes_per_second <= 0.0 || bytes == Bytes{}) return Time{};
  if (!(bytes_per_second <= std::numeric_limits<double>::max())) return Time{};  // inf/NaN

  // Decompose rate = mant * 2^shift with mant a 53-bit integer whose top
  // bit is set. Every finite positive double has exactly this form, so no
  // precision is lost.
  constexpr std::uint64_t kHidden = std::uint64_t{1} << 52;
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(bytes_per_second);
  const int biased_exponent = static_cast<int>(bits >> 52);  // Sign bit is 0.
  std::uint64_t mant = bits & (kHidden - 1);
  int shift = 0;
  if (biased_exponent != 0) {
    mant |= kHidden;
    shift = biased_exponent - 1075;
  } else {  // Subnormal: mant * 2^-1074, normalised up to the hidden bit.
    const int up = std::countl_zero(mant) - 11;
    mant <<= up;
    shift = -1074 - up;
  }

  // ceil(bytes * 1e12 / (mant * 2^shift)), all in integers.
  // bytes <= 2^64 and 1e12 < 2^40, so the numerator fits in 128 bits.
  unsigned __int128 num = static_cast<unsigned __int128>(bytes.value()) *
                          static_cast<unsigned __int128>(kSecond.ps());
  // Shifting the denominator up can only make the quotient smaller, so
  // saturate the shift instead of overflowing: den > num for any
  // num < 2^128.
  if (shift >= 75) return kPicosecond;
  // num * 2^(-shift) may exceed 128 bits for slow rates and huge
  // transfers; saturate to Time::max() when it would.
  const auto high = static_cast<std::uint64_t>(num >> 64);
  const int headroom = high != 0 ? std::countl_zero(high)
                                 : 64 + std::countl_zero(static_cast<std::uint64_t>(num));
  if (-shift > headroom) return Time::max();

  // mant's trailing zero bits move into the shift without changing the
  // quotient; then most transfers fit in 64 bits and divide natively.
  const int zeros = std::countr_zero(mant);
  mant >>= zeros;
  shift += zeros;
  unsigned __int128 den = mant;
  if (shift >= 0) {
    den <<= shift;
  } else {
    num <<= -shift;
  }
  unsigned __int128 ceil_q = 0;
  if ((num >> 64) == 0 && (den >> 64) == 0) {
    const auto n = static_cast<std::uint64_t>(num);
    const auto d = static_cast<std::uint64_t>(den);
    ceil_q = n / d + (n % d != 0 ? 1 : 0);
  } else {
    ceil_q = num / den + (num % den != 0 ? 1 : 0);
  }
  constexpr unsigned __int128 kMaxTime =
      static_cast<unsigned __int128>(std::numeric_limits<std::int64_t>::max());
  if (ceil_q >= kMaxTime) return Time::max();
  return Time{static_cast<std::int64_t>(ceil_q)};
}

}  // namespace nvmooc

// Hash support so Bytes (device addresses) and Time keep working as
// unordered-container keys. NOTE: *iterating* such containers in
// sim-affecting code is still forbidden (simlint rule SL003).
template <>
struct std::hash<nvmooc::Time> {
  std::size_t operator()(nvmooc::Time t) const noexcept {
    return std::hash<std::int64_t>{}(t.ps());
  }
};
template <>
struct std::hash<nvmooc::Bytes> {
  std::size_t operator()(nvmooc::Bytes b) const noexcept {
    return std::hash<std::uint64_t>{}(b.value());
  }
};
