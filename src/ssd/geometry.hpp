// SSD geometry and the logical-to-physical striping function.
//
// The paper's simulated devices have 8 channels, 64 packages and 128 dies
// (Section 4.1); with 2 planes per die that is 512 concurrently-usable
// plane positions. The striping order decides which parallelism level a
// request of a given size can reach — e.g. channel -> plane -> die means
// a request must span (channels x planes) mapping units before it starts
// interleaving dies, which is why mid-sized GPFS stripe chunks sit at
// PAL3 (multi-plane, no die interleave) in the paper.
#pragma once

#include <cstdint>
#include <string_view>

#include "common/units.hpp"
#include "nvm/timing.hpp"

namespace nvmooc {

/// Dimension order for striping consecutive mapping units.
enum class AllocationPolicy : std::uint8_t {
  kChannelPlaneDie = 0,  ///< Paper default: channel, then plane, then die.
  kChannelDiePlane = 1,  ///< Interleave dies before engaging planes.
  kDieChannelPlane = 2,  ///< Fill a channel's dies first (worst case).
};

std::string_view to_string(AllocationPolicy policy);

/// Physical location of one mapping unit.
struct PhysicalAddress {
  std::uint32_t channel = 0;
  std::uint32_t package = 0;  ///< Within the channel.
  std::uint32_t die = 0;      ///< Within the package.
  std::uint32_t plane = 0;
  std::uint64_t block = 0;    ///< Within the plane.
  std::uint32_t page = 0;     ///< Within the block.
};

struct SsdGeometry {
  std::uint32_t channels = 8;
  std::uint32_t packages_per_channel = 8;
  std::uint32_t dies_per_package = 2;
  AllocationPolicy policy = AllocationPolicy::kChannelPlaneDie;

  std::uint32_t dies_per_channel() const {
    return packages_per_channel * dies_per_package;
  }
  std::uint32_t total_packages() const { return channels * packages_per_channel; }
  std::uint32_t total_dies() const { return channels * dies_per_channel(); }

  /// Concurrent plane positions across the device.
  std::uint64_t plane_positions(const NvmTiming& timing) const {
    return static_cast<std::uint64_t>(total_dies()) * timing.planes_per_die;
  }

  /// Device capacity for the given media.
  [[nodiscard]] Bytes capacity(const NvmTiming& timing) const {
    return total_dies() * timing.die_size();
  }

  /// Maps mapping-unit index -> physical location under the striping
  /// policy. The mapping unit is the media's native page.
  PhysicalAddress map_unit(std::uint64_t unit, const NvmTiming& timing) const;

  /// Advances `address` from map_unit(u) to map_unit(u + 1): one step
  /// in the policy's dimension order, carrying into the next dimension
  /// when one wraps and into the page row when all three do. The
  /// controller maps the first unit of a run and walks the rest, so a
  /// transaction costs no divisions; map_unit stays the one mapping.
  void next(PhysicalAddress& address, const NvmTiming& timing) const;

  /// Inverse of map_unit (used by tests to prove the mapping is a
  /// bijection).
  std::uint64_t unit_of(const PhysicalAddress& address, const NvmTiming& timing) const;

  /// Device-wide index of the plane holding `address`: channel, package,
  /// die and plane numbered row-major. The one plane numbering: the
  /// hardware's plane timelines, the wear and FTL block keys and the
  /// controller's per-request loads are all indexed by it, and a die's
  /// planes, a package's dies and a channel's packages are contiguous.
  [[nodiscard]] std::uint32_t plane_index(const PhysicalAddress& address,
                                          const NvmTiming& timing) const {
    return ((address.channel * packages_per_channel + address.package) * dies_per_package +
            address.die) *
               timing.planes_per_die +
           address.plane;
  }

  /// Device-wide index of the erase block holding `address` (its page
  /// is ignored): plane_index, then the block within the plane.
  [[nodiscard]] std::uint64_t block_index(const PhysicalAddress& address,
                                          const NvmTiming& timing) const;
  /// block_index(map_unit(unit)) without building the address. Under
  /// every policy a unit's page row is unit / plane_positions; only its
  /// lane, unit % plane_positions, is ordered by the policy.
  [[nodiscard]] std::uint64_t block_index_of_unit(std::uint64_t unit,
                                                  const NvmTiming& timing) const;
  /// Page 0 of the block with index `block` (inverse of block_index).
  [[nodiscard]] PhysicalAddress block_base(std::uint64_t block, const NvmTiming& timing) const;
};

/// The paper's evaluated geometry: 8 channels / 64 packages / 128 dies.
SsdGeometry paper_geometry();

}  // namespace nvmooc
