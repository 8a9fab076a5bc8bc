#include "ssd/ssd.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "obs/host_profiler.hpp"

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
}

void Ssd::preload(Bytes dataset_bytes) { ftl_->set_preloaded(dataset_bytes); }

RequestResult Ssd::submit(const BlockRequest& request, Time arrival) {
  // Host telemetry (--speed-report): everything below the device boundary
  // — controller, FTL, media model — bills to the "controller" wall-time
  // bucket; nested timeline sections are subtracted back out.
  obs::HostSection host_section(obs::HostSubsystem::kController);
  return controller_->submit(request, arrival);
}

WearSummary Ssd::wear() const {
  WearSummary total;
  double erase_weighted = 0.0;
  total.min_unit_erases = ~0ULL;
  for (std::uint32_t c = 0; c < config_.geometry.channels; ++c) {
    for (std::uint32_t p = 0; p < config_.geometry.packages_per_channel; ++p) {
      const Package& package = hardware_->package(c, p);
      for (std::uint32_t d = 0; d < package.die_count(); ++d) {
        const WearSummary die_wear = package.die(d).wear().summary();
        total.total_erases += die_wear.total_erases;
        total.total_writes += die_wear.total_writes;
        total.touched_units += die_wear.touched_units;
        total.max_unit_erases = std::max(total.max_unit_erases, die_wear.max_unit_erases);
        if (die_wear.touched_units > 0) {
          total.min_unit_erases = std::min(total.min_unit_erases, die_wear.min_unit_erases);
          erase_weighted += die_wear.mean_unit_erases * static_cast<double>(die_wear.touched_units);
        }
      }
    }
  }
  if (total.touched_units == 0) {
    total.min_unit_erases = 0;
    total.imbalance = 1.0;
    return total;
  }
  total.mean_unit_erases = erase_weighted / static_cast<double>(total.touched_units);
  total.imbalance = total.mean_unit_erases > 0.0
                        ? static_cast<double>(total.max_unit_erases) / total.mean_unit_erases
                        : 1.0;
  return total;
}

BusyTracker Ssd::media_busy() const {
  BusyTracker merged;
  for (std::uint32_t c = 0; c < config_.geometry.channels; ++c) {
    merged.merge(hardware_->channel_bus(c).busy());
    for (std::uint32_t p = 0; p < config_.geometry.packages_per_channel; ++p) {
      const Package& package = hardware_->package(c, p);
      merged.merge(package.flash_bus().busy());
      for (std::uint32_t d = 0; d < package.die_count(); ++d) {
        const Die& die = package.die(d);
        for (std::uint32_t plane = 0; plane < die.plane_count(); ++plane) {
          merged.merge(die.plane_busy(plane));
        }
      }
    }
  }
  return merged;
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

  const BusyTracker merged = media_busy();
  stats.active_time = merged.busy_time();
  if (stats.active_time <= Time{}) {
    stats.remaining_bandwidth = stats.media_capability;
    return stats;
  }
  // A caller passing a zero/negative makespan (empty replay, or stats
  // taken before any host DMA) must get 0-utilisation answers, not
  // NaN/inf from the divisions below; the device's own active window is
  // the honest fallback denominator.
  if (wall_time <= Time{}) wall_time = stats.active_time;

  // A channel counts as busy while anything in its subsystem (bus or any
  // of its packages) is working — the paper's channel-level utilisation,
  // which is why GPFS's scatter keeps "channels" hot even though each
  // holds only one active die.
  double channel_sum = 0.0;
  for (std::uint32_t c = 0; c < config_.geometry.channels; ++c) {
    BusyTracker subsystem;
    subsystem.merge(hardware_->channel_bus(c).busy());
    for (std::uint32_t p = 0; p < config_.geometry.packages_per_channel; ++p) {
      const Package& package = hardware_->package(c, p);
      subsystem.merge(package.flash_bus().busy());
      for (std::uint32_t d = 0; d < package.die_count(); ++d) {
        const Die& die = package.die(d);
        for (std::uint32_t plane = 0; plane < die.plane_count(); ++plane) {
          subsystem.merge(die.plane_busy(plane));
        }
      }
    }
    channel_sum += subsystem.utilization(stats.active_time);
  }
  stats.channel_utilization = channel_sum / config_.geometry.channels;

  double package_sum = 0.0;
  double die_sum = 0.0;
  std::uint32_t die_count = 0;
  for (std::uint32_t c = 0; c < config_.geometry.channels; ++c) {
    for (std::uint32_t p = 0; p < config_.geometry.packages_per_channel; ++p) {
      const Package& package = hardware_->package(c, p);
      package_sum += std::min(
          1.0, static_cast<double>(package.busy_time()) / static_cast<double>(stats.active_time));
      for (std::uint32_t d = 0; d < package.die_count(); ++d) {
        const Time busy = package.die(d).busy_time();
        if (wall_time > Time{}) {
          die_sum += std::min(1.0, static_cast<double>(busy) / static_cast<double>(wall_time));
        }
        ++die_count;
      }
    }
  }
  stats.package_utilization = package_sum / config_.geometry.total_packages();
  stats.die_wall_utilization = die_count > 0 ? die_sum / die_count : 0.0;
  stats.remaining_bandwidth = stats.media_capability * (1.0 - stats.die_wall_utilization);
  return stats;
}

}  // namespace nvmooc
