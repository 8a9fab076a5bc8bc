#include "ssd/ssd.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>


namespace nvmooc {

namespace {

/// Fault targets must name hardware that exists: a stuck die or stalled
/// channel outside the geometry would otherwise never fire, silently.
void check_fault_targets(const FaultConfig& fault, const SsdGeometry& g) {
  const auto reject = [&](const std::string& directive) {
    throw std::invalid_argument(
        "fault directive '" + directive + "' is outside the device (" +
        std::to_string(g.channels) + " channels x " + std::to_string(g.packages_per_channel) +
        " packages x " + std::to_string(g.dies_per_package) + " dies)");
  };
  for (const DieStuckFault& f : fault.stuck_dies) {
    if (f.channel >= g.channels || f.package >= g.packages_per_channel ||
        f.die >= g.dies_per_package) {
      reject("stuck " + std::to_string(f.channel) + " " + std::to_string(f.package) + " " +
             std::to_string(f.die));
    }
  }
  for (const ChannelStallFault& f : fault.channel_stalls) {
    if (f.channel >= g.channels) reject("stall " + std::to_string(f.channel));
  }
}

/// Busy unions are kept per die, then package, channel and the device,
/// in this many slots.
std::size_t busy_slot_count(const SsdGeometry& g) {
  return static_cast<std::size_t>(g.total_dies()) + g.total_packages() + g.channels + 1;
}

/// The one busy-union pass, bottom up: a die is busy while any plane is;
/// a package while its port or any die is; a channel while its bus or
/// anything in its packages is (the paper's channel-level utilisation,
/// which is why GPFS's scatter keeps "channels" hot even though each holds
/// only one active die); the device while anything is. Each union walks
/// the contiguous index range of its parts. `part(timeline)` yields the
/// busy intervals taken from each timeline, and `add(slot, busy)`
/// receives each union's busy time, slots numbered as in
/// busy_slot_count().
template <typename Hardware, typename Part, typename Add>
void union_busy(Hardware& hardware, Part&& part, Add&& add) {
  const SsdGeometry& geometry = hardware.geometry;
  const std::uint32_t planes_per_die = hardware.timing.planes_per_die;
  std::size_t die_slot = 0;
  std::size_t package_slot = geometry.total_dies();
  const std::size_t channel_slot = package_slot + geometry.total_packages();
  std::size_t plane = 0;
  std::size_t package = 0;
  BusyTracker die_union;
  BusyTracker package_union;
  BusyTracker channel_union;
  BusyTracker device_union;
  for (std::uint32_t c = 0; c < geometry.channels; ++c) {
    channel_union.clear();
    channel_union.merge(part(hardware.channels[c]));
    for (std::uint32_t p = 0; p < geometry.packages_per_channel; ++p, ++package) {
      package_union.clear();
      package_union.merge(part(hardware.ports[package]));
      for (std::uint32_t d = 0; d < geometry.dies_per_package; ++d) {
        die_union.clear();
        for (std::uint32_t k = 0; k < planes_per_die; ++k, ++plane) {
          die_union.merge(part(hardware.planes[plane]));
        }
        add(die_slot++, die_union.busy_time());
        package_union.merge(die_union);
      }
      add(package_slot++, package_union.busy_time());
      channel_union.merge(package_union);
    }
    add(channel_slot + c, channel_union.busy_time());
    device_union.merge(channel_union);
  }
  add(channel_slot + geometry.channels, device_union.busy_time());
}

}  // namespace

Ssd::Ssd(const SsdConfig& config)
    : config_(config), timing_(timing_for(config.media)) {
  if (config_.fault.enabled) check_fault_targets(config_.fault, config_.geometry);
  hardware_ = std::make_unique<SsdHardware>(config_.geometry, timing_, config_.bus,
                                            config_.controller.queue_backfill);
  ftl_ = std::make_unique<Ftl>(config_.geometry, timing_, config_.ftl);
  if (config_.fault.enabled) {
    injector_ = std::make_unique<FaultInjector>(config_.fault, config_.media,
                                                timing_.endurance);
  }
  controller_ = std::make_unique<Controller>(*hardware_, *ftl_, config_.controller,
                                             injector_.get());
  timeline_count_ = hardware_->channels.size() + hardware_->ports.size() +
                    hardware_->planes.size();
  fold_interval_ = timeline_count_;
}

void Ssd::preload(Bytes dataset_bytes) { ftl_->set_preloaded(dataset_bytes); }

RequestResult Ssd::submit(const BlockRequest& request, Time arrival) {
  return controller_->submit(request, arrival);
}

void Ssd::advance_watermark(Time watermark) {
  const std::uint64_t transactions = controller_->stats().transactions;
  if (transactions - folded_at_transactions_ < fold_interval_) return;
  folded_at_transactions_ = transactions;
  folded_busy_.resize(busy_slot_count(config_.geometry));
  // Every timeline's intervals before the watermark lie before every
  // interval it keeps, so the unions of the folded prefixes add to the
  // folded totals exactly.
  std::uint64_t live = 0;
  union_busy(
      *hardware_,
      [&](Timeline& timeline) -> const BusyTracker& {
        timeline.fold_before(watermark, fold_prefix_);
        live += timeline.busy().interval_count();
        return fold_prefix_;
      },
      [this](std::size_t slot, Time busy) { folded_busy_[slot] += busy; });
  fold_interval_ = std::max(timeline_count_, live);
}

double Ssd::media_capability_bytes_per_sec() const {
  const double channel_aggregate =
      config_.bus.byte_rate() * static_cast<double>(config_.geometry.channels);
  const double cell_aggregate =
      timing_.die_read_bandwidth() * static_cast<double>(config_.geometry.total_dies());
  return std::min(channel_aggregate, cell_aggregate);
}

DeviceStats Ssd::device_stats(Time wall_time) const {
  DeviceStats stats;
  stats.media_capability = media_capability_bytes_per_sec();
  const SsdGeometry& geometry = config_.geometry;

  // Folded totals plus the unions of what the timelines still hold.
  std::vector<Time> busy = folded_busy_;
  busy.resize(busy_slot_count(geometry));
  union_busy(
      std::as_const(*hardware_),
      [](const Timeline& timeline) -> const BusyTracker& { return timeline.busy(); },
      [&busy](std::size_t slot, Time live) { busy[slot] += live; });
  const auto die_busy = busy.begin();
  const auto package_busy = die_busy + geometry.total_dies();
  const auto channel_busy = package_busy + geometry.total_packages();

  // Union of every internal busy interval: the utilisation denominator.
  stats.active_time = busy.back();
  if (stats.active_time <= Time{}) {
    stats.remaining_bandwidth = stats.media_capability;
    return stats;
  }
  // A caller passing a zero/negative makespan (empty replay, or stats
  // taken before any host DMA) must get 0-utilisation answers, not
  // NaN/inf from the divisions below; the device's own active window is
  // the honest fallback denominator.
  if (wall_time <= Time{}) wall_time = stats.active_time;
  const double active = static_cast<double>(stats.active_time);

  double channel_sum = 0.0;
  for (auto it = channel_busy; it != channel_busy + geometry.channels; ++it) {
    channel_sum += std::clamp(static_cast<double>(*it) / active, 0.0, 1.0);
  }
  stats.channel_utilization = channel_sum / geometry.channels;

  double package_sum = 0.0;
  for (auto it = package_busy; it != channel_busy; ++it) {
    package_sum += std::min(1.0, static_cast<double>(*it) / active);
  }
  stats.package_utilization = package_sum / geometry.total_packages();

  double die_sum = 0.0;
  for (auto it = die_busy; it != package_busy; ++it) {
    die_sum += std::min(1.0, static_cast<double>(*it) / static_cast<double>(wall_time));
  }
  stats.die_wall_utilization =
      geometry.total_dies() == 0 ? 0.0
                                 : die_sum / static_cast<double>(geometry.total_dies());
  stats.remaining_bandwidth = stats.media_capability * (1.0 - stats.die_wall_utilization);
  return stats;
}

}  // namespace nvmooc
