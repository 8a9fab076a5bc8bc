#include "cluster/engine.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/audit.hpp"
#include "cluster/window.hpp"
#include "common/probe.hpp"
#include "obs/host_profiler.hpp"
#include "obs/latency.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_recorder.hpp"
#include "ufs/ufs.hpp"

namespace nvmooc {

std::unique_ptr<IoPath> mount_io_path(const ExperimentConfig& config, Bytes extent) {
  if (config.use_ufs) {
    UfsConfig ufs_config;
    ufs_config.capacity = config.geometry.capacity(timing_for(config.media));
    auto ufs = std::make_unique<UnifiedFileSystem>(ufs_config);
    ufs->provision_dataset(std::max(extent, Bytes{1}));
    return ufs;
  }
  auto fs = std::make_unique<FileSystemModel>(config.fs);
  fs->mount(extent);
  return fs;
}

ReplayEngine::ReplayEngine(const ExperimentConfig& config, unsigned clients)
    : config_(config) {
  SsdConfig ssd_config;
  ssd_config.geometry = config_.geometry;
  ssd_config.media = config_.media;
  ssd_config.bus = config_.nvm_bus;
  ssd_config.controller = config_.controller;
  ssd_config.ftl = config_.ftl;
  ssd_config.fault = config_.fault;
  ssd_ = std::make_unique<Ssd>(ssd_config);

  clients_.resize(std::max(clients, 1U));

  host_dma_ = std::make_unique<DmaEngine>(config_.host_link);
  host_dma_->set_trace_label("link.host");
  if (config_.location == StorageLocation::kIonLocal) {
    LinkConfig wire = config_.network.wire;
    // The parallel-FS RPC software cost rides on every network transfer.
    wire.request_latency += config_.network.rpc_overhead;
    network_dma_ = std::make_unique<DmaEngine>(wire);
    network_dma_->set_trace_label("link.net");
  } else if (config_.fault.enabled) {
    LinkConfig wire = config_.network.wire;
    wire.request_latency += config_.network.rpc_overhead;
    degraded_dma_ = std::make_unique<DmaEngine>(wire);
    degraded_dma_->set_trace_label("link.degraded");
  }
}

ExperimentResult ReplayEngine::run(const Trace& trace) {
  const std::vector<PosixRequest>& posix_requests = trace.requests();
  const Bytes extent = trace.extent();
  // Client c replays its own copy of the dataset at c * region on the
  // device, so the FTL holds data through the end of the last copy.
  const Bytes region = ((extent + GiB - Bytes{1}) / GiB) * GiB;
  ssd_->preload((clients_.size() - 1) * region + extent);
  for (Client& client : clients_) {
    client.path = mount_io_path(config_, extent);
    const FsBehavior& behavior = client.path->behavior();
    client.device_window = Window(behavior.readahead, behavior.queue_depth);
    client.rpc_window = Window(Bytes{}, config_.location == StorageLocation::kIonLocal
                                            ? config_.network.max_concurrent_rpcs
                                            : 0);
  }
  const char* const layer = config_.use_ufs ? "ufs" : "fs";

  // Every client runs the same I/O path model, so one behaviour serves.
  const FsBehavior& behavior = clients_.front().path->behavior();
  // Submission pipelines: only a thin slice serialises on the issuing
  // core (doorbell + queue insert); the stack's real cost rides on each
  // request as added latency.
  const Time cpu_serial = std::min<Time>(behavior.per_request_overhead / 8,
                                         1500 * kNanosecond);
  const Time added_latency = behavior.per_request_overhead;

  // Figure 10's first category: per-request time between the media
  // finishing and the data actually reaching the application across the
  // links (host DMA, and the network for ION configurations).
  Time non_overlapped_dma;
  // Application-observed read latency distribution (ready -> data
  // delivered), in microseconds; 50 ms cap covers every configuration.
  // Linear buckets on purpose: obs::LogHistogram moves the p50-p999 figures.
  Histogram read_latency_us(0.0, 50'000.0, 4096);
  RunningStats read_latency_stats;

  // Instruments (tracer, metrics, profiler, host telemetry, exemplars,
  // flight recorder, auditor) listen on the probe: the loop below reports
  // each request's lifecycle once and never depends on who is listening.
  probe::replay_begin(clients_.size() * posix_requests.size());
  // Per-request phase-wait distributions (µs) and the outstanding-bytes
  // outline ride in every result (they are derived accounting, like the
  // latency histogram above, not optional instrumentation).
  std::array<obs::LogHistogram, kPhaseCount> phase_wait;
  obs::TimeSeries queue_depth_series;
  // Always-on stage decomposition of every request's phase ledger
  // (ExperimentResult::latency) and the ledger ordinal. The ordinal
  // counts non-empty device requests in issue order — the same 0-based
  // id scheme check::Auditor uses, so exemplars, flight dumps and audit
  // violations all name the same request.
  obs::LatencyAccumulator latency_acc;
  std::uint64_t request_ordinal = 0;

  // Degraded-mode accounting (only moves under fault injection).
  std::uint64_t degraded_requests = 0;
  Bytes degraded_bytes;
  bool aborted = false;
  std::string abort_reason;

  const auto finished = [&](const Client& client) {
    return client.posix == posix_requests.size();
  };
  // The earliest a client's next device request can be ready (a barrier
  // request also waits for the client's own pipeline to drain).
  const auto ready_gate = [&](const Client& client) {
    return std::max({client.cpu_free, client.barrier_gate,
                     posix_requests[client.posix].not_before});
  };
  const auto close_posix = [&](Client& client) {
    if (!aborted) client.completed_payload += posix_requests[client.posix].size;
    probe::progress(client.all_done);
    ++client.posix;
  };
  // Expands the client's POSIX requests, in trace order, until one has a
  // device request to issue (requests with none close at once) or the
  // trace ends.
  const auto open_posix = [&](Client& client) {
    while (!finished(client)) {
      const PosixRequest& posix = posix_requests[client.posix];
      client.batch = client.path->submit(posix);
      probe::Posix expansion{posix.size, {}, {}, client.batch.size(), 0, layer};
      for (const BlockRequest& device_request : client.batch) {
        if (device_request.internal) {
          expansion.internal += device_request.size;
          ++expansion.internal_requests;
        } else {
          expansion.payload += device_request.size;
        }
      }
      probe::posix(expansion);
      std::erase_if(client.batch, [](const BlockRequest& r) { return r.size == Bytes{}; });
      client.next = 0;
      if (!client.batch.empty()) return;
      close_posix(client);
    }
  };

  for (Client& client : clients_) open_posix(client);
  while (!aborted) {
    // The client that can issue earliest goes next (ties to the lower
    // index): fair-share interleaving at the shared device and links.
    Client* pick = nullptr;
    for (Client& client : clients_) {
      if (!finished(client) && (pick == nullptr || ready_gate(client) < ready_gate(*pick))) {
        pick = &client;
      }
    }
    if (pick == nullptr) break;
    Client& client = *pick;
    const Time not_before = posix_requests[client.posix].not_before;
    BlockRequest device_request = client.batch[client.next++];
    device_request.offset += static_cast<std::uint64_t>(pick - clients_.data()) * region;
    Window& device_window = client.device_window;
    Window& rpc_window = client.rpc_window;

    Time ready = ready_gate(client);
    if (device_request.barrier) ready = std::max(ready, client.all_done);

    const Time cpu_gate = client.cpu_free;
    Time admit = device_window.admit(ready, device_request.size);
    client.cpu_free = admit + cpu_serial;
    const Time issue = client.cpu_free + added_latency;
    // A client's issue times never decrease, and each request reserves at
    // or after its issue (media arrival, RPC admit, DMA, network, degraded
    // re-fetch). So no later reservation starts before the minimum, over
    // unfinished clients, of a bound on each one's next issue: this
    // request's issue, and for every other client its ready gate plus the
    // submission cost. The device and the links may fold what lies
    // before it. With one client it is this request's issue.
    Time watermark = issue;
    for (const Client& other : clients_) {
      if (&other != &client && !finished(other)) {
        watermark = std::min(watermark, ready_gate(other) + cpu_serial + added_latency);
      }
    }
    ssd_->advance_watermark(watermark);
    for (DmaEngine* link : {host_dma_.get(), network_dma_.get(), degraded_dma_.get()}) {
      if (link != nullptr) link->advance_watermark(watermark);
    }
    probe::request_open({ready, admit, issue, watermark, cpu_gate, client.barrier_gate,
                         not_before, client.all_done, device_request.barrier});

    Time completion;
    Time media_done;
    Time write_link_end;
    RequestResult media;
    if (device_request.op == NvmOp::kRead) {
      // Media first; the outbound DMA streams chunk-by-chunk as pages
      // complete, so the link occupancy starts with the media and the
      // request is done when both the media and the wire have finished.
      Time media_arrival = issue;
      if (network_dma_) {
        media_arrival = rpc_window.admit(issue, device_request.size);
        probe::rpc(issue, media_arrival);
      }
      media = ssd_->submit(device_request, media_arrival);
      media_done = media.media_end;
      const Reservation dma = host_dma_->transfer(media.media_begin, device_request.size);
      completion = std::max(media.media_end, dma.end);
      if (network_dma_) {
        const Reservation net =
            network_dma_->transfer(std::max(media.media_begin, dma.start),
                                   device_request.size);
        completion = std::max(completion, net.end);
        rpc_window.launch(completion, device_request.size);
      }
      if (media.uncorrectable_units > 0) {
        if (media.hard_failure) {
          aborted = true;
          abort_reason = "device hard failure: capacity lost past the spare "
                         "pool exceeded the failure threshold";
          probe::note(media.media_end, "engine", "abort", request_ordinal, 0,
                      abort_reason.c_str());
        } else if (degraded_dma_) {
          // Compute-local degraded mode: the device already remapped
          // the lost pages onto good media; their content is re-fetched
          // from the replica the ION kept. The request is only done
          // once that copy crosses the cluster network.
          const Reservation replica =
              degraded_dma_->transfer(media.media_end, media.uncorrectable_bytes);
          completion = std::max(completion, replica.end);
          ++degraded_requests;
          degraded_bytes += media.uncorrectable_bytes;
          probe::note(media.media_end, "engine", "degraded_refetch", request_ordinal,
                      (media.uncorrectable_bytes).value());
        } else {
          // ION-local storage *is* the resilience tier — an
          // uncorrectable read there has nowhere to fall back to.
          aborted = true;
          abort_reason = "uncorrectable read on ION-local storage (no "
                         "replica to recover from)";
          probe::note(media.media_end, "engine", "abort", request_ordinal, 0,
                      abort_reason.c_str());
        }
      }
    } else {
      // Writes: data crosses the links before the media programs it.
      Time at_device = issue;
      if (network_dma_) {
        const Time slot = rpc_window.admit(issue, device_request.size);
        probe::rpc(issue, slot);
        const Reservation net = network_dma_->transfer(slot, device_request.size);
        at_device = net.end;
      }
      const Reservation dma = host_dma_->transfer(at_device, device_request.size);
      media = ssd_->submit(device_request, dma.end);
      completion = media.media_end;
      media_done = media.media_end;
      write_link_end = dma.end;
      if (network_dma_) rpc_window.launch(completion, device_request.size);
    }

    const bool is_read = device_request.op == NvmOp::kRead;
    // For writes the data movement precedes the media: the inbound link
    // time that the media could not overlap is the gap between issue and
    // when programming could begin. For reads it is the tail past the
    // media (host DMA, network, degraded re-fetch).
    const Time request_nod =
        is_read ? std::max(Time{0}, completion - media_done)
                : std::max(Time{0}, write_link_end - issue);
    non_overlapped_dma += request_nod;
    if (is_read) {
      const double latency_us =
          static_cast<double>(completion - admit) / static_cast<double>(kMicrosecond);
      read_latency_us.add(latency_us);
      read_latency_stats.add(latency_us);
    }

    phase_wait[static_cast<int>(Phase::kNonOverlappedDma)].record(
        static_cast<double>(request_nod) / static_cast<double>(kMicrosecond));
    for (int p = 1; p < kPhaseCount; ++p) {
      phase_wait[p].record(static_cast<double>(media.phase_time[p]) / static_cast<double>(kMicrosecond));
    }

    // This request's phase ledger: absolute lifecycle timestamps plus
    // the stage decomposition (mapping documented in obs/latency.hpp).
    // Folded into the always-on breakdown, then closed on the probe.
    probe::RequestClose done;
    done.io_path = &client.path->behavior().name;
    done.pal = to_string(media.pal);
    done.in_flight = device_window.outstanding() + device_request.size;
    obs::PhaseLedger& ledger = done.ledger;
    ledger.id = request_ordinal++;
    ledger.read = is_read;
    ledger.internal = device_request.internal;
    ledger.bytes = (device_request.size).value();
    ledger.retries = media.retries;
    ledger.ready = ready;
    ledger.admit = admit;
    ledger.issue = issue;
    ledger.media_begin = media.media_begin;
    ledger.media_end = media.media_end;
    ledger.completion = completion;
    auto& stage = ledger.stage;
    stage[static_cast<int>(obs::LatencyStage::kQueueWait)] = admit - ready;
    stage[static_cast<int>(obs::LatencyStage::kCpu)] = client.cpu_free - admit;
    stage[static_cast<int>(obs::LatencyStage::kDispatch)] = issue - client.cpu_free;
    stage[static_cast<int>(obs::LatencyStage::kBus)] =
        media.phase_time[static_cast<int>(Phase::kChannelActivation)] +
        media.phase_time[static_cast<int>(Phase::kFlashBusActivation)];
    stage[static_cast<int>(obs::LatencyStage::kMediaWait)] =
        media.phase_time[static_cast<int>(Phase::kCellContention)] +
        media.phase_time[static_cast<int>(Phase::kChannelContention)];
    stage[static_cast<int>(obs::LatencyStage::kMedia)] =
        media.phase_time[static_cast<int>(Phase::kCellActivation)];
    stage[static_cast<int>(obs::LatencyStage::kEccRetry)] = media.retry_time;
    stage[static_cast<int>(obs::LatencyStage::kCompletionTail)] = request_nod;
    stage[static_cast<int>(obs::LatencyStage::kTotal)] = completion - ready;
    latency_acc.record(ledger);
    probe::request_close(done);
    device_window.launch(completion, device_request.size);
    if (&client == &clients_.front()) {
      queue_depth_series.sample(admit, static_cast<double>(device_window.outstanding()));
    }
    client.all_done = std::max(client.all_done, completion);
    if (device_request.barrier) {
      client.barrier_gate = completion;
      probe::note(completion, "engine", "barrier", ledger.id, (device_request.size).value());
    }
    // An abort stops the replay; diagnostics ride in the result.
    if (aborted || client.next == client.batch.size()) {
      close_posix(client);
      if (!aborted) open_posix(client);
    }
  }

  // ---- Derive the figures' quantities. --------------------------------
  ExperimentResult result;
  result.name = config_.name;
  result.media = config_.media;
  Bytes completed_payload;
  for (const Client& client : clients_) {
    result.makespan = std::max(result.makespan, client.all_done);
    result.client_makespans.push_back(client.all_done);
    completed_payload += client.completed_payload;
  }
  result.payload_bytes = clients_.size() * trace.stats().total_bytes;

  const ControllerStats& controller = ssd_->controller_stats();
  result.internal_bytes = controller.internal_bytes;
  result.device_requests = controller.requests;
  result.transactions = controller.transactions;

  // Bandwidth over what was actually delivered: identical to the trace
  // payload on a completed replay, honest (not inflated by undelivered
  // bytes) on an aborted one.
  if (result.makespan > Time{}) {
    result.achieved_mbps = bandwidth_mbps(completed_payload, result.makespan);
  }

  const DeviceStats device = ssd_->device_stats(result.makespan);
  result.remaining_mbps = device.remaining_bandwidth / 1e6;
  result.channel_utilization = device.channel_utilization;
  result.package_utilization = device.package_utilization;

  // Write-only replays have no read samples; skip the quantile calls so
  // the empty-histogram warning (common/stats.cpp) stays meaningful.
  result.read_latency.count = read_latency_us.total();
  result.read_latency.mean = read_latency_stats.mean();
  result.read_latency.min = read_latency_stats.min();
  result.read_latency.max = read_latency_stats.max();
  if (read_latency_us.total() > 0) {
    result.read_latency.p50 = read_latency_us.quantile(0.5);
    result.read_latency.p90 = read_latency_us.quantile(0.9);
    result.read_latency.p95 = read_latency_us.quantile(0.95);
    result.read_latency.p99 = read_latency_us.quantile(0.99);
    result.read_latency.p999 = read_latency_us.quantile(0.999);
  }

  std::array<double, kPhaseCount> phase_times{};
  phase_times[static_cast<int>(Phase::kNonOverlappedDma)] =
      static_cast<double>(non_overlapped_dma);
  for (int p = 1; p < kPhaseCount; ++p) {
    phase_times[p] = static_cast<double>(controller.phase_time[p]);
  }
  double phase_sum = 0.0;
  for (double t : phase_times) phase_sum += t;
  if (phase_sum > 0) {
    for (int p = 0; p < kPhaseCount; ++p) result.phase_fraction[p] = phase_times[p] / phase_sum;
  }

  Bytes pal_total;
  for (Bytes b : controller.pal_bytes) pal_total += b;
  if (pal_total > Bytes{}) {
    for (int level = 0; level < 4; ++level) {
      result.pal_fraction[level] =
          static_cast<double>(controller.pal_bytes[level]) / static_cast<double>(pal_total);
    }
  }

  result.wear = ssd_->wear();
  result.ftl = ssd_->ftl_stats();
  result.controller = controller;

  // Fold the three reliability vantage points together: the controller's
  // sense counters, the FTL's bad-block totals, and this engine's
  // degraded-mode recovery accounting.
  result.reliability = controller.reliability;
  result.reliability.remapped_blocks = result.ftl.retired_blocks;
  result.reliability.remap_relocations = result.ftl.remap_relocated_pages;
  result.reliability.spare_blocks_used = result.ftl.spare_blocks_used;
  result.reliability.capacity_lost = ssd_->ftl().capacity_lost();
  result.reliability.hard_failure =
      result.reliability.hard_failure || ssd_->ftl().failed();
  result.reliability.degraded_requests = degraded_requests;
  result.reliability.degraded_bytes = degraded_bytes;
  result.reliability.aborted = aborted;
  result.reliability.abort_reason = abort_reason;
  if (result.makespan > Time{}) {
    const Bytes device_served =
        completed_payload - std::min(degraded_bytes, completed_payload);
    result.reliability.effective_mbps = bandwidth_mbps(device_served, result.makespan);
  }

  for (int p = 0; p < kPhaseCount; ++p) result.phase_wait[p] = phase_wait[p].summary();
  result.latency = latency_acc.breakdown();
  result.queue_depth = queue_depth_series.points();

  // ---- Collect the installed instruments' reports. ----------------------
  check::Auditor* aud = check::auditor();
  if (aud != nullptr && aborted) aud->replay_aborted();
  if (obs::MetricsRegistry* registry = obs::metrics()) {
    registry->gauge("engine.makespan_ms").set(static_cast<double>(result.makespan) / static_cast<double>(kMillisecond));
    registry->gauge("engine.achieved_mbps").set(result.achieved_mbps);
    result.metrics = registry->snapshot();
  }
  if (obs::Profiler* prof = obs::profiler()) {
    result.profile = prof->report(result.makespan);
    // The blame report is a partition of the makespan: its buckets must
    // sum to the replay's end time exactly, in integer picoseconds. A
    // mismatch means an emitting site broke the contiguity contract —
    // under --audit that is an invariant violation like any other.
    if (aud != nullptr && result.profile.attributed != result.makespan) {
      aud->violation("profile",
                     "critical-path blame (" +
                         std::to_string(result.profile.attributed.ps()) +
                         " ps) != makespan (" +
                         std::to_string(result.makespan.ps()) + " ps)");
    }
    if (obs::TraceRecorder* recorder = obs::tracer()) {
      // Utilization timelines double as Perfetto counter tracks so the
      // windowed busy fractions line up under the span view.
      for (const obs::UtilizationSeries& series : result.profile.utilization) {
        const std::uint32_t track = recorder->track("profile." + series.resource);
        for (const auto& [t, v] : series.points) {
          recorder->counter(track, "profile", series.kind.c_str(), t, v);
        }
      }
    }
  }
  if (aud != nullptr) {
    // End-of-replay FTL sweep, then snapshot the verdict into the result.
    ssd_->ftl().audit(*aud);
    result.audit = aud->report();
  }
  if (obs::HostProfiler* host = obs::host_profiler()) {
    result.host = host->report(result.makespan);
  }
  return result;
}

ExperimentResult run_experiment(const ExperimentConfig& config, const Trace& trace) {
  ReplayEngine engine(config);
  return engine.run(trace);
}

MultiClientResult run_multi_client(const ExperimentConfig& config, const Trace& trace,
                                   unsigned clients) {
  MultiClientResult out;
  out.name = config.name;
  out.media = config.media;
  out.clients = std::max(clients, 1U);
  // Compute-local: every CN owns a full private stack, so one replay
  // stands for each (they are independent by construction).
  const bool shared = config.location == StorageLocation::kIonLocal;
  ReplayEngine engine(config, shared ? out.clients : 1);
  const ExperimentResult result = engine.run(trace);
  const Bytes per_client_bytes = trace.stats().total_bytes;
  out.makespan = result.makespan;
  out.total_bytes = out.clients * per_client_bytes;
  out.aggregate_mbps = bandwidth_mbps(out.total_bytes, out.makespan);
  double per_client_sum = 0.0;
  out.worst_client_mbps = 1e30;
  for (Time done : result.client_makespans) {
    const double mbps = bandwidth_mbps(per_client_bytes, done);
    per_client_sum += mbps;
    out.worst_client_mbps = std::min(out.worst_client_mbps, mbps);
  }
  out.per_client_mbps = per_client_sum / static_cast<double>(result.client_makespans.size());
  return out;
}

}  // namespace nvmooc
