#include "ssd/geometry.hpp"

namespace nvmooc {

std::string_view to_string(AllocationPolicy policy) {
  switch (policy) {
    case AllocationPolicy::kChannelPlaneDie: return "channel-plane-die";
    case AllocationPolicy::kChannelDiePlane: return "channel-die-plane";
    case AllocationPolicy::kDieChannelPlane: return "die-channel-plane";
  }
  return "?";
}

PhysicalAddress SsdGeometry::map_unit(std::uint64_t unit, const NvmTiming& timing) const {
  const std::uint64_t num_channels = channels;
  const std::uint64_t num_planes = timing.planes_per_die;
  const std::uint64_t num_dies = dies_per_channel();

  std::uint64_t channel = 0;
  std::uint64_t plane = 0;
  std::uint64_t die_in_channel = 0;
  std::uint64_t row = 0;

  switch (policy) {
    case AllocationPolicy::kChannelPlaneDie: {
      channel = unit % num_channels;
      std::uint64_t rest = unit / num_channels;
      plane = rest % num_planes;
      rest /= num_planes;
      die_in_channel = rest % num_dies;
      row = rest / num_dies;
      break;
    }
    case AllocationPolicy::kChannelDiePlane: {
      channel = unit % num_channels;
      std::uint64_t rest = unit / num_channels;
      die_in_channel = rest % num_dies;
      rest /= num_dies;
      plane = rest % num_planes;
      row = rest / num_planes;
      break;
    }
    case AllocationPolicy::kDieChannelPlane: {
      die_in_channel = unit % num_dies;
      std::uint64_t rest = unit / num_dies;
      channel = rest % num_channels;
      rest /= num_channels;
      plane = rest % num_planes;
      row = rest / num_planes;
      break;
    }
  }

  PhysicalAddress address;
  address.channel = static_cast<std::uint32_t>(channel);
  address.package = static_cast<std::uint32_t>(die_in_channel / dies_per_package);
  address.die = static_cast<std::uint32_t>(die_in_channel % dies_per_package);
  address.plane = static_cast<std::uint32_t>(plane);
  address.block = row / timing.pages_per_block;
  address.page = static_cast<std::uint32_t>(row % timing.pages_per_block);
  return address;
}

void SsdGeometry::next(PhysicalAddress& address, const NvmTiming& timing) const {
  // Each step bumps one dimension and reports whether it wrapped. A die
  // index within the channel is (package, die), so it carries from die
  // into package.
  const auto channel = [&] {
    if (++address.channel < channels) return false;
    address.channel = 0;
    return true;
  };
  const auto plane = [&] {
    if (++address.plane < timing.planes_per_die) return false;
    address.plane = 0;
    return true;
  };
  const auto die = [&] {
    if (++address.die < dies_per_package) return false;
    address.die = 0;
    if (++address.package < packages_per_channel) return false;
    address.package = 0;
    return true;
  };
  const auto row = [&] {
    if (++address.page < timing.pages_per_block) return;
    address.page = 0;
    ++address.block;
  };
  switch (policy) {
    case AllocationPolicy::kChannelPlaneDie:
      if (channel() && plane() && die()) row();
      break;
    case AllocationPolicy::kChannelDiePlane:
      if (channel() && die() && plane()) row();
      break;
    case AllocationPolicy::kDieChannelPlane:
      if (die() && channel() && plane()) row();
      break;
  }
}

std::uint64_t SsdGeometry::unit_of(const PhysicalAddress& address,
                                   const NvmTiming& timing) const {
  const std::uint64_t num_channels = channels;
  const std::uint64_t num_planes = timing.planes_per_die;
  const std::uint64_t num_dies = dies_per_channel();
  const std::uint64_t die_in_channel =
      static_cast<std::uint64_t>(address.package) * dies_per_package + address.die;
  const std::uint64_t row =
      address.block * timing.pages_per_block + address.page;

  switch (policy) {
    case AllocationPolicy::kChannelPlaneDie:
      return address.channel +
             num_channels * (address.plane + num_planes * (die_in_channel + num_dies * row));
    case AllocationPolicy::kChannelDiePlane:
      return address.channel +
             num_channels * (die_in_channel + num_dies * (address.plane + num_planes * row));
    case AllocationPolicy::kDieChannelPlane:
      return die_in_channel +
             num_dies * (address.channel + num_channels * (address.plane + num_planes * row));
  }
  return 0;
}

std::uint64_t SsdGeometry::block_index(const PhysicalAddress& address,
                                       const NvmTiming& timing) const {
  return std::uint64_t{plane_index(address, timing)} * timing.blocks_per_plane + address.block;
}

std::uint64_t SsdGeometry::block_index_of_unit(std::uint64_t unit,
                                               const NvmTiming& timing) const {
  const std::uint64_t positions = plane_positions(timing);
  const std::uint64_t row = unit / positions;
  // The lane is below the position count, so 32-bit divisions suffice.
  const auto lane = static_cast<std::uint32_t>(unit - row * positions);
  const std::uint32_t num_planes = timing.planes_per_die;
  const std::uint32_t num_dies = dies_per_channel();
  std::uint32_t die_in_channel = 0;
  PhysicalAddress address;
  switch (policy) {
    case AllocationPolicy::kChannelPlaneDie:
      address.channel = lane % channels;
      address.plane = lane / channels % num_planes;
      die_in_channel = lane / channels / num_planes;
      break;
    case AllocationPolicy::kChannelDiePlane:
      address.channel = lane % channels;
      die_in_channel = lane / channels % num_dies;
      address.plane = lane / channels / num_dies;
      break;
    case AllocationPolicy::kDieChannelPlane:
      die_in_channel = lane % num_dies;
      address.channel = lane / num_dies % channels;
      address.plane = lane / num_dies / channels;
      break;
  }
  address.package = die_in_channel / dies_per_package;
  address.die = die_in_channel % dies_per_package;
  address.block = row / timing.pages_per_block;
  return block_index(address, timing);
}

PhysicalAddress SsdGeometry::block_base(std::uint64_t block, const NvmTiming& timing) const {
  std::uint64_t position = block / timing.blocks_per_plane;
  PhysicalAddress base;
  base.block = block % timing.blocks_per_plane;
  base.plane = static_cast<std::uint32_t>(position % timing.planes_per_die);
  position /= timing.planes_per_die;
  base.die = static_cast<std::uint32_t>(position % dies_per_package);
  position /= dies_per_package;
  base.package = static_cast<std::uint32_t>(position % packages_per_channel);
  base.channel = static_cast<std::uint32_t>(position / packages_per_channel);
  return base;
}

SsdGeometry paper_geometry() { return SsdGeometry{}; }

}  // namespace nvmooc
