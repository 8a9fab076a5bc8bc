#include "ssd/controller.hpp"

#include <algorithm>
#include <bit>

#include "common/probe.hpp"

namespace nvmooc {
namespace {

/// Cap on cell operations folded into one burst transaction.
constexpr std::uint32_t kMaxBurstCells = 4096;

}  // namespace

SsdHardware::SsdHardware(const SsdGeometry& geometry, const NvmTiming& timing,
                         const BusConfig& bus, bool backfill)
    : geometry(geometry), timing(timing), bus(bus),
      channels(geometry.channels, Timeline(backfill)),
      ports(geometry.total_packages(), Timeline(backfill)),
      planes(geometry.plane_positions(timing), Timeline(backfill)),
      plane_sites(planes.size()),
      die_busy(geometry.total_dies()),
      package_busy(geometry.total_packages()),
      channel_busy(geometry.channels) {
  for (std::uint32_t plane = 0; plane < plane_sites.size(); ++plane) {
    const std::uint32_t die = plane / timing.planes_per_die;
    plane_sites[plane] = {die, die / geometry.dies_per_package, die / geometry.dies_per_channel()};
  }
}

Reservation SsdHardware::activate(std::uint32_t plane, const PhysicalAddress& address,
                                  NvmOp op, std::uint32_t cell_ops, Time earliest,
                                  Time duration) {
  switch (op) {
    case NvmOp::kErase:
      wear.record_erase(geometry.block_index(address, timing));
      break;
    case NvmOp::kWrite:
      wear.record_writes(cell_ops);
      break;
    case NvmOp::kRead:
      break;
  }
  const PlaneSite& site = plane_sites[plane];
  const Reservation grant = planes[plane].reserve(earliest, duration);
  if (die_busy[site.die].add_interval(grant.start, grant.end) &&
      package_busy[site.package].add_interval(grant.start, grant.end) &&
      channel_busy[site.channel].add_interval(grant.start, grant.end)) {
    device_busy.add_interval(grant.start, grant.end);
  }
  return grant;
}

std::uint64_t SsdHardware::fold_before(Time watermark) {
  for (std::vector<Timeline>* timelines : {&channels, &ports, &planes}) {
    for (Timeline& timeline : *timelines) timeline.fold_before(watermark);
  }
  std::uint64_t live = 0;
  const auto fold = [&](BusyTracker& busy) {
    busy.fold_before(watermark);
    live += busy.interval_count();
  };
  for (std::vector<BusyTracker>* unions : {&die_busy, &package_busy, &channel_busy}) {
    for (BusyTracker& busy : *unions) fold(busy);
  }
  fold(device_busy);
  return live;
}

Controller::Controller(SsdHardware& hardware, Ftl& ftl, ControllerConfig config,
                       FaultInjector* injector)
    : hardware_(hardware), ftl_(ftl), config_(config), ecc_(config.ecc),
      injector_(injector), cell_times_(hardware.timing),
      plane_load_(hardware.planes.size()),
      channel_load_(hardware.channels.size()),
      package_fb_(hardware.ports.size()),
      die_plane_mask_(hardware.geometry.total_dies()),
      touched_planes_((plane_load_.size() + 63) / 64) {}

template <typename Visit>
void Controller::expand_run(const UnitRun& run, Visit&& visit) const {
  const NvmTiming& timing = hardware_.timing;
  const SsdGeometry& geometry = hardware_.geometry;
  const std::uint64_t positions = geometry.plane_positions(timing);
  const Bytes page = timing.page_size;
  PhysicalAddress address = geometry.map_unit(run.first_unit, timing);

  // Burst mode: group the run's units by plane position. Units at the
  // same position are consecutive rows on that plane, so one command can
  // stream them. This is PCM's row-burst read: it only exists for media
  // with tiny pages — NAND cell activations are full-page commands and
  // never merge.
  const bool burst =
      run.op != NvmOp::kErase && timing.page_size <= Bytes{512} && run.count > positions;
  if (burst) {
    const std::uint64_t spanned = std::min<std::uint64_t>(run.count, positions);
    Bytes bytes_left = run.bytes;
    // The first `spanned` units cover distinct positions. Every position
    // holds `rows` of the run's units, and the first `extra` one more.
    const std::uint64_t rows = run.count / positions;
    const std::uint64_t extra = run.count % positions;
    for (std::uint64_t i = 0; i < spanned; ++i) {
      if (i > 0) geometry.next(address, timing);
      std::uint64_t remaining = rows + (i < extra ? 1 : 0);
      std::uint64_t cursor = run.first_unit + i;
      // A position's rows all lie on one plane.
      const std::uint32_t plane = geometry.plane_index(address, timing);
      PhysicalAddress burst_address = address;
      while (remaining > 0) {
        const std::uint32_t cells = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(remaining, kMaxBurstCells));
        const Bytes want = cells * page;
        const Bytes bytes = std::min(bytes_left, want);
        bytes_left -= bytes;
        visit(TxnSpec{run.op, cursor, cells, bytes, burst_address, run.gc}, plane);
        cursor += static_cast<std::uint64_t>(cells) * positions;
        remaining -= cells;
        // Only a position holding more than kMaxBurstCells of the run's
        // rows gets a second command, so this map_unit is rare.
        if (remaining > 0) burst_address = geometry.map_unit(cursor, timing);
      }
    }
    return;
  }

  // One transaction per unit; edge units absorb the run's byte trims.
  const Bytes full = run.count * page;
  Bytes leading_trim;
  Bytes trailing_trim;
  if (run.bytes < full) {
    const Bytes trim = full - run.bytes;
    leading_trim = std::min(trim, page - Bytes{1});
    trailing_trim = trim - leading_trim;
  }
  for (std::uint64_t i = 0; i < run.count; ++i) {
    if (i > 0) geometry.next(address, timing);
    Bytes bytes = (run.op == NvmOp::kErase) ? Bytes{} : page;
    if (run.op != NvmOp::kErase) {
      if (i == 0) bytes -= std::min(bytes, leading_trim);
      if (i + 1 == run.count) bytes -= std::min(bytes, trailing_trim);
    }
    visit(TxnSpec{run.op, run.first_unit + i, 1, bytes, address, run.gc},
          geometry.plane_index(address, timing));
  }
}

Time Controller::bus_time(Bytes bytes) {
  if (bytes != bus_memo_bytes_) {
    bus_memo_bytes_ = bytes;
    bus_memo_time_ = hardware_.bus.transfer_time(bytes);
  }
  return bus_memo_time_;
}

template <bool kProbed>
void Controller::schedule(const TxnSpec& spec, std::uint32_t plane, Time arrival,
                          bool inject, bool count_pal) {
  const NvmTiming& timing = hardware_.timing;
  const PhysicalAddress& address = spec.address;
  const PlaneSite& where = hardware_.plane_sites[plane];

  // Every step's cost lands in the request's plane, channel and package
  // loads (the critical path, see submit()) and in the device stats.
  touched_planes_[plane / 64] |= 1ULL << (plane % 64);
  PlaneLoad& plane_load = plane_load_[plane];
  ChannelLoad& channel_load = channel_load_[where.channel];
  Time& port_load = package_fb_[where.package];
  Time& op_cell_time = stats_.cell_time_by_op[static_cast<int>(spec.op)];
  std::uint64_t& reservations = current_.reservations;
  const auto cell_step = [&](const Reservation& cell) {
    plane_load.cell += cell.end - cell.start;
    plane_load.wait += cell.waited;
    op_cell_time += cell.end - cell.start;
    if (cell.end > cell.start) ++reservations;
  };
  const auto port_step = [&](const Reservation& fb) {
    port_load += fb.end - fb.start;
    channel_load.wait += fb.waited;
    stats_.bus_time += fb.end - fb.start;
    if (fb.end > fb.start) ++reservations;
  };
  const auto channel_step = [&](const Reservation& transfer) {
    channel_load.active += transfer.end - transfer.start;
    channel_load.wait += transfer.waited;
    stats_.bus_time += transfer.end - transfer.start;
    if (transfer.end > transfer.start) ++reservations;
  };
  // The probed build reports each step's (wait, occupancy) pair to the
  // probe once; the bare build holds no emitter at all.
  const probe::Site site{address.channel, address.package, address.die, address.plane};
  const auto report = [&](probe::Resource resource, Time earliest, const Reservation& grant,
                          std::uint32_t attempt = 0, bool erase = false) {
    if constexpr (kProbed) {
      probe::step(resource, site, earliest, grant.start, grant.end, attempt, erase);
    }
  };

  // An injected channel stall pushes the whole transaction back; the
  // delay books as channel contention like any other bus wait.
  Time start = arrival;
  if (inject && injector_ != nullptr) {
    bool stalled = false;
    start = injector_->channel_available(address.channel, arrival, &stalled);
    if (stalled) {
      ++stats_.reliability.channel_stalls;
      channel_load.wait += start - arrival;
      report(probe::Resource::kChannelStall, arrival, {start, start, start - arrival});
    }
  }

  // Command/address cycles occupy the shared channel.
  const Reservation cmd = hardware_.reserve_channel(plane, start, timing.command_time);
  channel_step(cmd);
  report(probe::Resource::kChannel, start, cmd);

  // Both the channel transfer and the package port move the payload at
  // the bus rate.
  const Time data_time = bus_time(spec.bytes);

  Time complete;
  // Reliability outcome (all zero/false when fault injection is off).
  std::uint32_t retries = 0;   // Read-retry ladder steps taken.
  bool corrected = false;      // Raw bit errors occurred but ECC recovered.
  bool uncorrectable = false;  // Ladder exhausted (or die stuck): data lost.
  Time retry_time;             // Completion delay the retry attempts added.
  switch (spec.op) {
    case NvmOp::kRead: {
      // Decide the sense chain's fate up front (the draw stream is keyed
      // by unit + access ordinal, so the verdict is independent of when
      // the senses land), then reserve one cell/bus chain per attempt so
      // retries re-enter cell and channel contention for real.
      std::uint32_t attempts = 1;
      if (inject && injector_ != nullptr) {
        if (injector_->die_stuck(address.channel, address.package, address.die,
                                 cmd.end)) {
          // Stuck die: the status poll fails immediately — no sense data,
          // no ladder to climb, the data is simply gone.
          uncorrectable = true;
          ++stats_.reliability.die_stuck_reads;
        } else {
          const double rber = injector_->effective_rber(
              hardware_.wear.erases(hardware_.geometry.block_index(address, timing)));
          const std::uint64_t access = injector_->next_access(spec.first_unit);
          const Bytes sensed = std::max<Bytes>(spec.bytes, timing.page_size);
          const EccOutcome ecc = ecc_.read(rber, sensed, [&](std::uint32_t attempt) {
            return injector_->uniform(spec.first_unit, access, attempt);
          });
          retries = ecc.retries;
          corrected = ecc.verdict != ReadVerdict::kClean;
          uncorrectable = ecc.verdict == ReadVerdict::kUncorrectable;
          attempts += ecc.retries;
        }
      }

      const Time cell_time = cell_times_.run_time(NvmOp::kRead, address.page, spec.cell_ops);
      Time cursor = cmd.end;
      Time first_end;
      for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
        // Ladder step k senses with finer reference levels and holds the
        // plane k * factor * t_read longer than a nominal read.
        const Time extra =
            attempt == 0
                ? Time{}
                // retry_latency_factor is a config-file double; truncation
                // here matches the published baseline numbers.
                // simlint: allow(float-to-time) -- pinned by the replay tests.
                : Time{static_cast<std::int64_t>(static_cast<double>(timing.read_time) *
                                                 ecc_.config().retry_latency_factor *
                                                 static_cast<double>(attempt))};
        const Reservation cell = hardware_.activate(plane, address, NvmOp::kRead,
                                                    spec.cell_ops, cursor, cell_time + extra);
        cell_step(cell);
        report(probe::Resource::kCell, cursor, cell, attempt);
        const Reservation fb = hardware_.reserve_port(plane, cell.end, data_time);
        port_step(fb);
        report(probe::Resource::kPort, cell.end, fb);
        const Reservation out = hardware_.reserve_channel(plane, fb.end, data_time);
        channel_step(out);
        report(probe::Resource::kChannel, fb.end, out);
        cursor = out.end;
        if (attempt == 0) first_end = cursor;
      }
      complete = cursor;
      retry_time = cursor - first_end;
      current_.non_write_end = std::max(current_.non_write_end, complete);
      break;
    }
    case NvmOp::kWrite: {
      const Reservation in = hardware_.reserve_channel(plane, cmd.end, data_time);
      channel_step(in);
      current_.write_data_in_end = std::max(current_.write_data_in_end, in.end);
      report(probe::Resource::kChannel, cmd.end, in);
      const Reservation fb = hardware_.reserve_port(plane, in.end, data_time);
      port_step(fb);
      report(probe::Resource::kPort, in.end, fb);
      const Reservation cell = hardware_.activate(
          plane, address, NvmOp::kWrite, spec.cell_ops, fb.end,
          cell_times_.run_time(NvmOp::kWrite, address.page, spec.cell_ops));
      cell_step(cell);
      complete = cell.end;
      report(probe::Resource::kCell, fb.end, cell);
      break;
    }
    case NvmOp::kErase: {
      const Reservation cell =
          hardware_.activate(plane, address, NvmOp::kErase, 1, cmd.end,
                             cell_times_.run_time(NvmOp::kErase, address.page, 1));
      cell_step(cell);
      complete = cell.end;
      current_.non_write_end = std::max(current_.non_write_end, complete);
      report(probe::Resource::kCell, cmd.end, cell, 0, /*erase=*/true);
      break;
    }
  }

  if constexpr (kProbed) {
    // The remap pass runs with inject=false, count_pal=false; GC
    // relocations carry the spec's gc flag; a read spec inside a write
    // request is the read half of a read-modify-write.
    probe::MediaKind kind = probe::MediaKind::kRequest;
    if (!inject && !count_pal) {
      kind = probe::MediaKind::kRemap;
    } else if (spec.gc) {
      kind = probe::MediaKind::kGc;
    } else if (current_.op == NvmOp::kWrite && spec.op == NvmOp::kRead) {
      kind = probe::MediaKind::kRmw;
    }
    probe::media_transfer(spec.bytes, kind, retries);
  }
  ++stats_.transactions;

  RequestResult& result = current_.result;
  if (retries > 0 || corrected || uncorrectable) {
    stats_.reliability.read_retries += retries;
    stats_.reliability.retry_time += retry_time;
    if (uncorrectable) {
      ++stats_.reliability.uncorrectable_reads;
    } else if (corrected) {
      ++stats_.reliability.corrected_reads;
    }
    result.retries += retries;
    result.retry_time += retry_time;
    if (retries > 0) {
      probe::note(complete, "ssd", "ecc_retry", retries, retry_time.ps());
    }
    if (uncorrectable) {
      ++result.uncorrectable_units;
      result.uncorrectable_bytes += std::max<Bytes>(spec.bytes, timing.page_size);
      probe::note(complete, "ssd", "uncorrectable", spec.first_unit, (spec.bytes).value());
      if (!ftl_.retire_block(spec.first_unit, current_.remap_runs)) {
        result.hard_failure = true;
        stats_.reliability.hard_failure = true;
        probe::note(complete, "ssd", "hard_failure", spec.first_unit);
      } else {
        probe::note(complete, "ssd", "bad_block_retire", spec.first_unit,
                    current_.remap_runs.size());
      }
    }
  }

  result.media_end = std::max(result.media_end, complete);
  ++result.transactions;

  if (!count_pal) return;
  const std::uint32_t die_in_channel =
      address.package * hardware_.geometry.dies_per_package + address.die;
  channel_load.die_mask |= 1ULL << (die_in_channel % 64);
  die_plane_mask_[where.die] |= 1u << address.plane;
}

template <bool kProbed>
void Controller::schedule_request(const std::vector<UnitRun>& runs, Time arrival) {
  // Each transaction is scheduled as the stripe walk reaches it.
  for (const UnitRun& run : runs) {
    expand_run(run, [&](const TxnSpec& spec, std::uint32_t plane) {
      schedule<kProbed>(spec, plane, arrival, /*inject=*/true, /*count_pal=*/true);
    });
  }
  // Bad-block relocation traffic triggered by this request's
  // uncorrectable reads; scheduled after the payload pass, without fault
  // injection (a remap must not recursively fail), and excluded from the
  // PAL masks. With inject=false none of its reads is uncorrectable and
  // no block retires: remap_runs cannot grow while it is walked.
  for (const UnitRun& run : current_.remap_runs) {
    expand_run(run, [&](const TxnSpec& spec, std::uint32_t plane) {
      schedule<kProbed>(spec, plane, arrival, /*inject=*/false, /*count_pal=*/false);
    });
    stats_.internal_bytes += run.bytes;
  }
}

Bytes Controller::dirty_bytes_at(Time when) {
  Bytes dirty;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < write_buffer_drain_.size(); ++i) {
    if (write_buffer_drain_[i].first > when) {
      dirty += write_buffer_drain_[i].second;
      write_buffer_drain_[keep++] = write_buffer_drain_[i];
    }
  }
  write_buffer_drain_.resize(keep);
  return dirty;
}

template <typename Visit>
void Controller::for_each_touched_plane(Visit&& visit) const {
  for (std::size_t word = 0; word < touched_planes_.size(); ++word) {
    for (std::uint64_t bits = touched_planes_[word]; bits != 0; bits &= bits - 1) {
      visit(static_cast<std::uint32_t>(word * 64 + std::countr_zero(bits)));
    }
  }
}

void Controller::clear_request_loads() {
  for_each_touched_plane([this](std::uint32_t plane) {
    const PlaneSite& site = hardware_.plane_sites[plane];
    plane_load_[plane] = PlaneLoad{};
    channel_load_[site.channel] = ChannelLoad{};
    package_fb_[site.package] = Time{};
    die_plane_mask_[site.die] = 0;
  });
  std::fill(touched_planes_.begin(), touched_planes_.end(), 0);
}

RequestResult Controller::submit(const BlockRequest& request, Time arrival) {
  // Byte conservation: the request's own (non-GC, non-RMW, non-remap)
  // channel transfers must sum to its size — page-rounded for writes,
  // since programs move whole pages. The probe carries the expectation
  // and every transfer's class to the auditor.
  Bytes expected = request.size;
  if (request.op == NvmOp::kErase) {
    expected = Bytes{};  // Defensive: raw erases translate to nothing.
  } else if (request.op == NvmOp::kWrite && request.size > Bytes{}) {
    const Bytes page = hardware_.timing.page_size;
    const std::uint64_t first = request.offset / page;
    const std::uint64_t last = (request.offset + request.size - Bytes{1}) / page;
    expected = (last - first + 1) * page;
  }
  probe::media_begin(expected, request.internal);

  const std::vector<UnitRun> runs = ftl_.translate(request);

  current_.op = request.op;
  current_.result = RequestResult{};
  current_.write_data_in_end = Time{};
  current_.non_write_end = Time{};
  current_.remap_runs.clear();
  current_.reservations = 0;
  RequestResult& result = current_.result;
  result.issue = arrival;
  result.bytes = request.size;
  result.media_begin = arrival;

  // Critical-path phase accounting: within one request, cell activations
  // on different planes run in parallel and transfers on different
  // channels run in parallel — what the request *feels* is the longest
  // per-plane cell chain and the longest per-channel bus chain. Summing
  // raw resource time across hundreds of parallel transactions would
  // drown the breakdown in arithmetic parallelism (Figure 10 reports the
  // per-request experience). The per-plane, per-channel and per-package
  // loads, and the PAL masks, live in the flat scratch arrays; clearing
  // here rather than at the end keeps them sound if a request throws.
  clear_request_loads();

  // Per-transaction probe events (kTxn) are decided once per request.
  if (probe::listening(probe::Kind::kTxn)) {
    schedule_request<true>(runs, arrival);
  } else {
    schedule_request<false>(runs, arrival);
  }

  // Fold the request's critical-path components into the totals. Waits
  // are capped by the device wall so queueing behind *other* requests
  // (host-side pipelining) cannot inflate a single request's share.
  // Ties go to the lowest-numbered plane and channel, so walk the touched
  // planes in index order (the bitmap's order); a channel's planes are
  // contiguous, so each channel is seen first at its lowest plane.
  const Time device_wall = std::max(Time{}, result.media_end - arrival);
  PlaneLoad worst_plane;
  ChannelLoad worst_channel;
  Time worst_fb;
  bool die_interleaved = false;
  bool multi_plane = false;
  std::uint32_t last_channel = ~0u;
  for_each_touched_plane([&](std::uint32_t index) {
    const PlaneSite& site = hardware_.plane_sites[index];
    const PlaneLoad& load = plane_load_[index];
    if (load.cell + load.wait > worst_plane.cell + worst_plane.wait) worst_plane = load;
    worst_fb = std::max(worst_fb, package_fb_[site.package]);
    if (std::popcount(die_plane_mask_[site.die]) > 1) multi_plane = true;
    if (site.channel == last_channel) return;
    last_channel = site.channel;
    const ChannelLoad& channel = channel_load_[site.channel];
    if (channel.active + channel.wait > worst_channel.active + worst_channel.wait) {
      worst_channel = channel;
    }
    if (std::popcount(channel.die_mask) > 1) die_interleaved = true;
  });

  // Contention visible to one request is bounded by one service quantum
  // per resource chain (it queues behind at most a dispatch window of
  // peers); anything beyond that is host-side pipelining, not device
  // time.
  result.phase_time[static_cast<int>(Phase::kCellActivation)] =
      std::min(worst_plane.cell, device_wall);
  result.phase_time[static_cast<int>(Phase::kCellContention)] =
      std::min(worst_plane.wait, std::min(worst_plane.cell, device_wall));
  result.phase_time[static_cast<int>(Phase::kChannelActivation)] =
      std::min(worst_channel.active, device_wall);
  result.phase_time[static_cast<int>(Phase::kChannelContention)] =
      std::min(worst_channel.wait, std::min(worst_channel.active, device_wall));
  result.phase_time[static_cast<int>(Phase::kFlashBusActivation)] =
      std::min(worst_fb, device_wall);
  for (int p = 0; p < kPhaseCount; ++p) stats_.phase_time[p] += result.phase_time[p];

  // Write-back caching: a write request acknowledges once its bytes are
  // in controller DRAM, provided the dirty set fits; the cell programs
  // keep the planes busy in the background (their contention effects on
  // later requests are already booked on the timelines).
  if (config_.write_buffer > Bytes{} && request.op == NvmOp::kWrite &&
      current_.write_data_in_end > Time{}) {
    const Time ack_floor = std::max(current_.write_data_in_end, current_.non_write_end);
    if (dirty_bytes_at(ack_floor) + request.size <= config_.write_buffer) {
      write_buffer_drain_.emplace_back(result.media_end, request.size);
      result.media_end = ack_floor;
    }
  }

  // Classify parallelism.
  if (die_interleaved && multi_plane) {
    result.pal = ParallelismLevel::kPal4;
  } else if (multi_plane) {
    result.pal = ParallelismLevel::kPal3;
  } else if (die_interleaved) {
    result.pal = ParallelismLevel::kPal2;
  } else {
    result.pal = ParallelismLevel::kPal1;
  }

  ++stats_.requests;
  bool any_gc = false;
  for (const UnitRun& run : runs) any_gc = any_gc || run.gc;
  if (request.internal) stats_.internal_bytes += request.size;
  if (any_gc) {
    Bytes gc_bytes;
    for (const UnitRun& run : runs) {
      if (run.gc) {
        stats_.internal_bytes += run.bytes;
        gc_bytes += run.bytes;
      }
    }
    probe::note(result.media_end, "ssd", "gc", (request.offset).value(), gc_bytes.value());
  }
  stats_.pal_bytes[static_cast<int>(result.pal)] += request.size;
  stats_.last_completion = std::max(stats_.last_completion, result.media_end);

  probe::media_end({result.transactions, result.media_end - arrival, result.retries,
                    result.uncorrectable_units, current_.reservations});
  // A retirement rewrites mappings; prove the survivors stayed sound.
  if (!current_.remap_runs.empty()) ftl_.audit_installed();
  return result;
}

}  // namespace nvmooc
