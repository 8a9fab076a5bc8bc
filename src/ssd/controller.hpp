// SSD controller: turns FTL unit runs into scheduled NVM transactions on
// the channel/package/die resource timelines, and keeps the accounting
// the paper's evaluation reports (phase breakdown, PAL classification).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "nvm/bus.hpp"
#include "nvm/wear.hpp"
#include "reliability/ecc.hpp"
#include "reliability/fault.hpp"
#include "sim/timeline.hpp"
#include "ssd/ftl.hpp"
#include "ssd/geometry.hpp"
#include "ssd/request.hpp"

namespace nvmooc {

/// The physical resources of the device, flat: one shared bus per
/// channel, one port per package (the register <-> pads "flash bus" a
/// package's dies share, the paper's "Flash-Bus Activation"), and one
/// cell-activation timeline per plane. Packages are numbered channel-
/// major and planes by SsdGeometry::plane_index, so a channel's packages
/// and a die's planes are contiguous. Multi-plane commands are per-plane
/// activations with the same earliest start; die interleaving falls out
/// of every plane having its own timeline.
///
/// The hardware also keeps the busy unions the paper's Fig 9 reads, and
/// adds each grant to them where it lands: a die is busy while any of its
/// planes is; a package while its port or any of its dies is; a channel
/// while its bus or anything in its packages is (the paper's channel-level
/// utilisation, which is why GPFS's scatter keeps "channels" hot even
/// though each holds only one active die); the device while anything is.
/// So a plane grant joins up to four unions, a port grant three and a
/// channel grant two, innermost first. Each union contains the ones
/// inside it, so the first union that already covered a grant ends the
/// walk: every union above covered it too.
struct SsdHardware {
  SsdHardware(const SsdGeometry& geometry, const NvmTiming& timing, const BusConfig& bus,
              bool backfill);

  /// A plane's die, package and channel, numbered row-major like it.
  struct PlaneSite {
    std::uint32_t die;
    std::uint32_t package;
    std::uint32_t channel;
  };

  /// Reserves the bus of plane `plane`'s channel.
  Reservation reserve_channel(std::uint32_t plane, Time earliest, Time duration) {
    const PlaneSite& site = plane_sites[plane];
    const Reservation grant = channels[site.channel].reserve(earliest, duration);
    if (channel_busy[site.channel].add_interval(grant.start, grant.end)) {
      device_busy.add_interval(grant.start, grant.end);
    }
    return grant;
  }

  /// Reserves the port of plane `plane`'s package.
  Reservation reserve_port(std::uint32_t plane, Time earliest, Time duration) {
    const PlaneSite& site = plane_sites[plane];
    const Reservation grant = ports[site.package].reserve(earliest, duration);
    if (package_busy[site.package].add_interval(grant.start, grant.end) &&
        channel_busy[site.channel].add_interval(grant.start, grant.end)) {
      device_busy.add_interval(grant.start, grant.end);
    }
    return grant;
  }

  /// Reserves `cell_ops` back-to-back cell activations of `op` at
  /// `address` on plane `plane` (its plane_index) for `duration`, no
  /// earlier than `earliest`. The caller sizes `duration`: the nominal
  /// time (CellTimeTable::run_time) plus any read-retry occupancy. An
  /// erase wears its block; a program counts its pages written.
  Reservation activate(std::uint32_t plane, const PhysicalAddress& address, NvmOp op,
                       std::uint32_t cell_ops, Time earliest, Time duration);

  /// Folds every busy union before `watermark` into its total and drops
  /// every timeline's dead gaps (BusyTracker::fold_before,
  /// Timeline::fold_before); returns the live union intervals left.
  std::uint64_t fold_before(Time watermark);

  SsdGeometry geometry;
  NvmTiming timing;
  BusConfig bus;
  std::vector<Timeline> channels;  ///< One bus per channel.
  std::vector<Timeline> ports;     ///< One port per package, channel-major.
  std::vector<Timeline> planes;    ///< One per SsdGeometry::plane_index.
  std::vector<PlaneSite> plane_sites;  ///< One per SsdGeometry::plane_index.
  std::vector<BusyTracker> die_busy;      ///< One busy union per die.
  std::vector<BusyTracker> package_busy;  ///< One per package.
  std::vector<BusyTracker> channel_busy;  ///< One per channel.
  BusyTracker device_busy;                ///< Everything: the active time.
  WearTracker wear;                ///< Erases keyed by SsdGeometry::block_index.
};

struct ControllerConfig {
  /// PAQ-style out-of-order dispatch: short transfers may backfill holes
  /// in a channel's schedule instead of queueing strictly FIFO.
  bool queue_backfill = true;
  /// Controller DRAM write-back cache: a write completes once its data
  /// is in device DRAM (channel transfer done) as long as the dirty
  /// bytes fit; programming drains in the background. 0 disables
  /// (write-through, the evaluation default).
  Bytes write_buffer;
  /// ECC strength and read-retry ladder shape. Only consulted when the
  /// device was built with a FaultInjector (fault injection enabled).
  EccConfig ecc;
};

struct ControllerStats {
  std::array<Time, kPhaseCount> phase_time{};
  /// Raw cell-busy resource time by operation (read/write/erase) —
  /// unlike phase_time this sums across parallel planes, which is what
  /// energy accounting needs.
  std::array<Time, 3> cell_time_by_op{};
  /// Raw bus occupancy (flash + channel) across all resources.
  Time bus_time;
  std::uint64_t transactions = 0;
  std::uint64_t requests = 0;
  Bytes internal_bytes;  ///< Journal/metadata/GC traffic.
  std::array<Bytes, 4> pal_bytes{};
  Time last_completion;
  /// Sense-level reliability counters (all zero with injection off).
  ReliabilityStats reliability;
};

// Dispatches across every channel and owns cross-channel accounting.
class Controller {
 public:
  /// `injector` may be null (the default): no faults, no per-sense
  /// draws, the fault-free fast path.
  Controller(SsdHardware& hardware, Ftl& ftl, ControllerConfig config,
             FaultInjector* injector = nullptr);

  /// Executes one device request arriving at `arrival`; returns its
  /// completion record (media_end is when the last byte left the channel
  /// bus / the program finished).
  RequestResult submit(const BlockRequest& request, Time arrival);

  const ControllerStats& stats() const { return stats_; }

 private:
  struct TxnSpec {
    NvmOp op;
    std::uint64_t first_unit;
    std::uint32_t cell_ops;
    Bytes bytes;
    PhysicalAddress address;  ///< map_unit(first_unit), walked to by expand_run.
    bool gc = false;  ///< Carries UnitRun::gc through expansion (audit class).
  };

  /// Expands a unit run into per-plane transactions (burst-grouping small
  /// pages when enabled) and hands each to `visit(const TxnSpec&, plane)`
  /// in stripe order, as it is walked, with its SsdGeometry::plane_index:
  /// maps the run's first unit and walks the stripe from there.
  template <typename Visit>
  void expand_run(const UnitRun& run, Visit&& visit) const;

  /// Reserves one transaction's steps on plane `plane` and adds each
  /// cost straight into the current request's loads, its result and the
  /// stats. `inject` gates fault draws: bad-block relocation traffic is
  /// scheduled with injection off so a remap cannot recursively fail.
  /// `count_pal` is off for that traffic too: it says nothing about the
  /// request's data layout.
  void schedule(const TxnSpec& spec, std::uint32_t plane, Time arrival, bool inject,
                bool count_pal);

  /// Dirty bytes still being programmed at time `when`.
  [[nodiscard]] Bytes dirty_bytes_at(Time when);

  /// Time the channel and package-port buses are held for `bytes`.
  [[nodiscard]] Time bus_time(Bytes bytes);

  /// Calls `visit(plane)` for every plane the current request touched,
  /// in ascending index order.
  template <typename Visit>
  void for_each_touched_plane(Visit&& visit) const;

  /// Zeroes the per-request scratch entries the last request touched.
  void clear_request_loads();

  // Per-request critical-path and PAL accounting (see submit()).
  struct PlaneLoad {
    Time cell;
    Time wait;
  };
  struct ChannelLoad {
    Time active;  // command + data transfer
    Time wait;
    std::uint64_t die_mask = 0;  ///< PAL: dies used in this channel.
  };
  /// The request submit() is scheduling, as its transactions add up.
  struct CurrentRequest {
    NvmOp op = NvmOp::kRead;
    RequestResult result;
    Time write_data_in_end;  ///< Last inbound transfer of its writes.
    Time non_write_end;      ///< RMW reads and GC work that must land first.
    /// Bad-block relocations its uncorrectable reads queued.
    std::vector<UnitRun> remap_runs;
  };

  SsdHardware& hardware_;
  Ftl& ftl_;
  ControllerConfig config_;
  EccModel ecc_;
  FaultInjector* injector_ = nullptr;
  ControllerStats stats_;
  /// (program completion, bytes) of buffered writes still draining.
  std::vector<std::pair<Time, Bytes>> write_buffer_drain_;
  /// Each op's cell time for a run of pages, in O(1).
  CellTimeTable cell_times_;
  /// One-entry memo of bus_time(): a burst run's transactions share one
  /// size. transfer_time(0) is 0, so the empty memo is already valid.
  Bytes bus_memo_bytes_;
  Time bus_memo_time_;
  CurrentRequest current_;
  // Per-request scratch, flat by geometry and reused across requests:
  // planes by SsdGeometry::plane_index, dies, packages and channels in
  // the same row-major order (SsdHardware::plane_sites maps between them).
  using PlaneSite = SsdHardware::PlaneSite;
  std::vector<PlaneLoad> plane_load_;
  std::vector<ChannelLoad> channel_load_;
  std::vector<Time> package_fb_;
  std::vector<std::uint32_t> die_plane_mask_;  ///< PAL: planes used per die.
  /// Bitmap over plane_load_ of the planes this request touched.
  std::vector<std::uint64_t> touched_planes_;
};

}  // namespace nvmooc
