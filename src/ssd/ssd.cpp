#include "ssd/ssd.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

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
  fold_interval_ = std::max(timeline_count_, hardware_->fold_before(watermark));
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

  const SsdHardware& hardware = *hardware_;
  // Union of every internal busy interval: the utilisation denominator.
  stats.active_time = hardware.device_busy.busy_time();
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
  for (const BusyTracker& busy : hardware.channel_busy) {
    channel_sum += std::clamp(static_cast<double>(busy.busy_time()) / active, 0.0, 1.0);
  }
  stats.channel_utilization = channel_sum / geometry.channels;

  double package_sum = 0.0;
  for (const BusyTracker& busy : hardware.package_busy) {
    package_sum += std::min(1.0, static_cast<double>(busy.busy_time()) / active);
  }
  stats.package_utilization = package_sum / geometry.total_packages();

  double die_sum = 0.0;
  for (const BusyTracker& busy : hardware.die_busy) {
    die_sum +=
        std::min(1.0, static_cast<double>(busy.busy_time()) / static_cast<double>(wall_time));
  }
  stats.die_wall_utilization =
      geometry.total_dies() == 0 ? 0.0
                                 : die_sum / static_cast<double>(geometry.total_dies());
  stats.remaining_bandwidth = stats.media_capability * (1.0 - stats.die_wall_utilization);
  return stats;
}

}  // namespace nvmooc
