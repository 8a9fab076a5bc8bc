// Assembled SSD: hardware + FTL + controller, with the derived statistics
// the paper's figures report.
#pragma once

#include <memory>
#include <vector>

#include "nvm/bus.hpp"
#include "nvm/wear.hpp"
#include "ssd/controller.hpp"

namespace nvmooc {

struct SsdConfig {
  SsdGeometry geometry = paper_geometry();
  NvmType media = NvmType::kSlc;
  BusConfig bus = onfi3_sdr_bus();
  ControllerConfig controller;
  FtlConfig ftl;
  /// Fault injection (disabled by default: no injector is built and the
  /// device behaves exactly like the fault-free simulator).
  FaultConfig fault;
};

/// Figure 7b/8b/9 quantities, all derived after a replay finishes.
struct DeviceStats {
  /// Union of every internal busy interval — "the device was doing
  /// something". Denominator for the utilisation numbers.
  Time active_time;
  /// Mean over channels of bus-busy / active_time (Figure 9a).
  double channel_utilization = 0.0;
  /// Mean over packages of package-busy / active_time (Figure 9b).
  double package_utilization = 0.0;
  /// Mean over dies of cell-busy / wall time; used for the remaining-
  /// bandwidth estimate.
  double die_wall_utilization = 0.0;
  /// min(aggregate channel-bus rate, aggregate cell read rate), bytes/s.
  double media_capability = 0.0;
  /// media_capability x (1 - die_wall_utilization) — Figure 7b/8b.
  double remaining_bandwidth = 0.0;
};

class Ssd {
 public:
  explicit Ssd(const SsdConfig& config);

  /// Declares the sequentially pre-loaded dataset (paper Section 3.1:
  /// data migrates to the local SSD before computation starts).
  void preload(Bytes dataset_bytes);

  /// Runs one device request; `arrival` is when it reaches the device.
  RequestResult submit(const BlockRequest& request, Time arrival);

  /// Promises that no later submit() has `arrival` below `watermark`
  /// (the replay engine's issue time, which never decreases), so no busy
  /// union or timeline gap before it can change again. A fold adds each
  /// die, package, channel and device union's busy time before the
  /// watermark to that union's total and drops every timeline's dead
  /// gaps (SsdHardware::fold_before). It visits the T timelines and at
  /// most T + 1 unions, and walks what each union holds, so it costs
  /// about T + L, where L is the live union interval count the last fold
  /// left. The device folds once it has run max(T, L) transactions since
  /// the last fold — the links' "fold when the list has doubled" rule —
  /// so the fold's cost per transaction stays constant. A reservation
  /// adds at most one interval to each union it joins (a plane grant
  /// four, a port grant three, a channel grant two), so between folds
  /// the live count stays below L + 4R·(max(T, L) + K), where R is
  /// reservations per transaction and K is one request's transactions
  /// (a fold waits for a request boundary): memory tracks what is in
  /// flight. A device whose watermark never advances keeps every
  /// interval, and device_stats() gives the same answers either way.
  void advance_watermark(Time watermark);

  const SsdConfig& config() const { return config_; }
  const NvmTiming& timing() const { return timing_; }
  const ControllerStats& controller_stats() const { return controller_->stats(); }
  const FtlStats& ftl_stats() const { return ftl_->stats(); }

  /// The device's wear: erases per block, pages written.
  WearSummary wear() const { return hardware_->wear.summary(); }

  /// Derived per-figure statistics; `wall_time` is the replay makespan
  /// (first issue to last completion including host DMA). Reads each die,
  /// package, channel and device busy union's total, folded and live.
  DeviceStats device_stats(Time wall_time) const;

  /// min(channel aggregate, cell aggregate) streaming read capability.
  double media_capability_bytes_per_sec() const;

  SsdHardware& hardware() { return *hardware_; }
  Ftl& ftl() { return *ftl_; }
  const Ftl& ftl() const { return *ftl_; }

 private:
  SsdConfig config_;
  NvmTiming timing_;
  std::unique_ptr<SsdHardware> hardware_;
  std::unique_ptr<Ftl> ftl_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<Controller> controller_;
  /// The device's timeline count: the least number of transactions
  /// between folds.
  std::uint64_t timeline_count_;
  /// Transactions before the next fold: the timeline count, or the live
  /// union intervals the last fold left if that is more.
  std::uint64_t fold_interval_;
  std::uint64_t folded_at_transactions_ = 0;
};

}  // namespace nvmooc
