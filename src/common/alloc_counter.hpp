// Counting-allocator hooks for host-memory telemetry.
//
// The host profiler (src/obs/host_profiler.hpp) wants to know where the
// simulator's own memory goes — specifically the timelines' gap lists and
// their owners' busy unions, the containers that grow with replay size. Rather than
// interposing a global allocator, the owning containers opt in with
// CountingAllocator<T, Domain>, which charges every allocate/deallocate
// to a per-thread tally the profiler snapshots.
//
// The tallies are thread-local and non-atomic: an engine replay runs on
// one thread, so the counts are exact there and the hot path is a plain
// add (no contention, no fences, no effect on simulated arithmetic —
// determinism is untouched). A container handed to another thread
// charges its frees to that thread's tally; the numbers are telemetry,
// not a leak checker, so this skew is acceptable and documented here.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <new>

#include "common/shard_domain.hpp"

namespace nvmooc {

/// Which subsystem a counted container belongs to.
enum class AllocDomain : std::uint8_t { kTimeline = 0 };
inline constexpr int kAllocDomainCount = 1;

/// Per-domain allocation accounting on the calling thread.
struct AllocTally {
  std::uint64_t allocated_bytes = 0;  ///< Cumulative bytes requested.
  std::uint64_t freed_bytes = 0;      ///< Cumulative bytes returned.
  std::uint64_t allocations = 0;      ///< Cumulative allocate() calls.
  std::uint64_t live_bytes = 0;       ///< Outstanding right now.
  std::uint64_t peak_live_bytes = 0;  ///< High-water of live_bytes.
};

namespace detail {
SIM_SHARD_SHARED("thread-local; each thread mutates only its own tally slots and the host profiler snapshots them on the owning thread")
inline thread_local std::array<AllocTally, kAllocDomainCount> tls_alloc_tallies{};
}

/// The calling thread's tally for one domain.
inline AllocTally& alloc_tally(AllocDomain domain) {
  return detail::tls_alloc_tallies[static_cast<int>(domain)];
}

template <typename T, AllocDomain Domain>
class CountingAllocator {
 public:
  using value_type = T;

  /// allocator_traits cannot deduce a rebind through the non-type Domain
  /// parameter, so spell it out.
  template <typename U>
  struct rebind {
    using other = CountingAllocator<U, Domain>;
  };

  CountingAllocator() = default;
  template <typename U>
  CountingAllocator(const CountingAllocator<U, Domain>&) noexcept {}

  T* allocate(std::size_t n) {
    AllocTally& tally = alloc_tally(Domain);
    const std::uint64_t bytes = static_cast<std::uint64_t>(n) * sizeof(T);
    tally.allocated_bytes += bytes;
    tally.live_bytes += bytes;
    tally.peak_live_bytes = std::max(tally.peak_live_bytes, tally.live_bytes);
    ++tally.allocations;
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    AllocTally& tally = alloc_tally(Domain);
    const std::uint64_t bytes = static_cast<std::uint64_t>(n) * sizeof(T);
    tally.freed_bytes += bytes;
    // Saturate rather than wrap if the container crossed threads.
    tally.live_bytes -= std::min(tally.live_bytes, bytes);
    ::operator delete(p);
  }

  template <typename U>
  bool operator==(const CountingAllocator<U, Domain>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const CountingAllocator<U, Domain>&) const noexcept {
    return false;
  }
};

}  // namespace nvmooc
