#include "layer_driver.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <utility>

#include "cluster/window.hpp"
#include "interconnect/link.hpp"
#include "nvm/timing.hpp"
#include "ssd/ssd.hpp"
#include "ufs/ufs.hpp"

namespace perfbench {

using namespace nvmooc;

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Times calls into one layer and keeps the spans in memory.
class SpanRecorder {
 public:
  SpanRecorder(LayerTrace& trace, bool record) : trace_(trace), record_(record) {
    origin_ = now_ns();
  }

  template <typename Fn>
  auto call(Layer layer, std::uint32_t request, Fn&& fn) {
    if (!record_) return fn();
    const std::int64_t begin = now_ns();
    auto out = fn();
    const std::int64_t end = now_ns();
    trace_.spans.push_back({layer, request, begin - origin_, end - begin});
    trace_.seconds[static_cast<int>(layer)] += static_cast<double>(end - begin) * 1e-9;
    return out;
  }

  /// Closes the parent span; returns its length in seconds.
  double finish() {
    const std::int64_t end = now_ns();
    const auto count = static_cast<std::uint32_t>(trace_.posix_requests);
    if (record_) trace_.spans.push_back({Layer::kReplay, count, 0, end - origin_});
    const double seconds = static_cast<double>(end - origin_) * 1e-9;
    trace_.seconds[static_cast<int>(Layer::kReplay)] = seconds;
    return seconds;
  }

 private:
  LayerTrace& trace_;
  bool record_;
  std::int64_t origin_ = 0;
};

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kReplay: return "replay";
    case Layer::kIoPath: return "io_path.submit";
    case Layer::kSsdRead: return "ssd.read_submit";
    case Layer::kSsdWrite: return "ssd.write_submit";
    case Layer::kLink: return "link.transfer";
    case Layer::kDeviceStats: return "ssd.device_stats";
  }
  return "?";
}

std::string Digest::json() const {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"makespan_ps\":%lld,\"transactions\":%llu,\"device_requests\":%llu,"
                "\"pal_fraction\":[%.17g,%.17g,%.17g,%.17g],\"makespan_ms\":%.17g,"
                "\"achieved_mbps\":%.17g,\"channel_utilization\":%.17g}",
                static_cast<long long>(makespan_ps),
                static_cast<unsigned long long>(transactions),
                static_cast<unsigned long long>(device_requests), pal_fraction[0],
                pal_fraction[1], pal_fraction[2], pal_fraction[3], makespan_ms,
                achieved_mbps, channel_utilization);
  return buf;
}

Digest digest_of(const ExperimentResult& result) {
  Digest d;
  d.makespan_ps = result.makespan.ps();
  d.transactions = result.transactions;
  d.device_requests = result.device_requests;
  d.pal_fraction = result.pal_fraction;
  // Same expression bench_headline writes into BENCH_headline.json.
  d.makespan_ms = static_cast<double>(result.makespan) / static_cast<double>(kMillisecond);
  d.achieved_mbps = result.achieved_mbps;
  d.channel_utilization = result.channel_utilization;
  return d;
}

double LayerTrace::self_seconds() const {
  double children = 0.0;
  for (int l = 1; l < kLayerCount; ++l) children += seconds[l];
  return seconds[static_cast<int>(Layer::kReplay)] - children;
}

DriverResult drive(const ExperimentConfig& config, const Trace& trace, bool record_spans) {
  if (config.fault.enabled) {
    throw std::runtime_error("layer driver: fault-injected configs are not benchmarked");
  }
  // Build the node exactly as ReplayEngine's constructor does.
  SsdConfig ssd_config;
  ssd_config.geometry = config.geometry;
  ssd_config.media = config.media;
  ssd_config.bus = config.nvm_bus;
  ssd_config.controller = config.controller;
  ssd_config.ftl = config.ftl;
  ssd_config.fault = config.fault;
  Ssd ssd(ssd_config);

  std::unique_ptr<FileSystemModel> fs;
  std::unique_ptr<UnifiedFileSystem> ufs;
  IoPath* path = nullptr;
  if (config.use_ufs) {
    UfsConfig ufs_config;
    ufs_config.capacity = config.geometry.capacity(timing_for(config.media));
    ufs = std::make_unique<UnifiedFileSystem>(ufs_config);
    path = ufs.get();
  } else {
    fs = std::make_unique<FileSystemModel>(config.fs);
    path = fs.get();
  }
  DmaEngine host_dma(config.host_link);
  host_dma.set_trace_label("link.host");
  std::unique_ptr<DmaEngine> network_dma;
  const bool ion = config.location == StorageLocation::kIonLocal;
  if (ion) {
    LinkConfig wire = config.network.wire;
    wire.request_latency += config.network.rpc_overhead;
    network_dma = std::make_unique<DmaEngine>(wire);
    network_dma->set_trace_label("link.net");
  }

  DriverResult out;
  out.trace.config = config.name + "/" + std::string(to_string(config.media));
  LayerTrace& lt = out.trace;
  if (record_spans) lt.spans.reserve(trace.size() * 4 + 16);
  SpanRecorder rec(lt, record_spans);

  const Bytes extent = trace.extent();
  ssd.preload(extent);
  if (ufs) {
    ufs->provision_dataset(std::max(extent, Bytes{1}));
  } else {
    fs->mount(extent);
  }
  const FsBehavior& behavior = path->behavior();
  Window device_window(behavior.readahead, behavior.queue_depth);
  Window rpc_window(Bytes{}, ion ? config.network.max_concurrent_rpcs : 0);
  const Time cpu_serial =
      std::min<Time>(behavior.per_request_overhead / 8, 1500 * kNanosecond);
  const Time added_latency = behavior.per_request_overhead;

  Time cpu_free;
  Time barrier_gate;
  Time all_done;
  Bytes completed_payload;
  std::uint32_t ordinal = 0;
  for (const PosixRequest& posix : trace.requests()) {
    ++lt.posix_requests;
    const std::vector<BlockRequest> device_requests =
        rec.call(Layer::kIoPath, ordinal, [&] { return path->submit(posix); });
    for (const BlockRequest& request : device_requests) {
      if (request.size == Bytes{}) continue;
      ++lt.device_requests;
      Time ready = std::max({cpu_free, barrier_gate, posix.not_before});
      if (request.barrier) ready = std::max(ready, all_done);
      const Time admit = device_window.admit(ready, request.size);
      cpu_free = admit + cpu_serial;
      const Time issue = cpu_free + added_latency;

      Time completion;
      if (request.op == NvmOp::kRead) {
        Time media_arrival = issue;
        if (network_dma) media_arrival = rpc_window.admit(issue, request.size);
        const RequestResult media = rec.call(
            Layer::kSsdRead, ordinal, [&] { return ssd.submit(request, media_arrival); });
        const Reservation dma = rec.call(Layer::kLink, ordinal, [&] {
          return host_dma.transfer(media.media_begin, request.size);
        });
        ++lt.link_transfers;
        completion = std::max(media.media_end, dma.end);
        if (network_dma) {
          const Reservation net = rec.call(Layer::kLink, ordinal, [&] {
            return network_dma->transfer(std::max(media.media_begin, dma.start), request.size);
          });
          ++lt.link_transfers;
          completion = std::max(completion, net.end);
          rpc_window.launch(completion, request.size);
        }
        if (media.uncorrectable_units > 0) {
          throw std::runtime_error("layer driver: uncorrectable read without faults");
        }
      } else {
        Time at_device = issue;
        if (network_dma) {
          const Time slot = rpc_window.admit(issue, request.size);
          const Reservation net = rec.call(Layer::kLink, ordinal, [&] {
            return network_dma->transfer(slot, request.size);
          });
          ++lt.link_transfers;
          at_device = net.end;
        }
        const Reservation dma = rec.call(
            Layer::kLink, ordinal, [&] { return host_dma.transfer(at_device, request.size); });
        ++lt.link_transfers;
        const RequestResult media = rec.call(
            Layer::kSsdWrite, ordinal, [&] { return ssd.submit(request, dma.end); });
        completion = media.media_end;
        if (network_dma) rpc_window.launch(completion, request.size);
      }
      device_window.launch(completion, request.size);
      all_done = std::max(all_done, completion);
      if (request.barrier) barrier_gate = completion;
    }
    completed_payload += posix.size;
    ++ordinal;
  }

  // The derivation tail ReplayEngine::run performs for the digest fields.
  ExperimentResult result;
  result.makespan = all_done;
  const ControllerStats& controller = ssd.controller_stats();
  result.device_requests = controller.requests;
  result.transactions = controller.transactions;
  if (result.makespan > Time{}) {
    result.achieved_mbps = bandwidth_mbps(completed_payload, result.makespan);
  }
  const DeviceStats device = rec.call(Layer::kDeviceStats, ordinal,
                                      [&] { return ssd.device_stats(result.makespan); });
  result.channel_utilization = device.channel_utilization;
  Bytes pal_total;
  for (Bytes b : controller.pal_bytes) pal_total += b;
  if (pal_total > Bytes{}) {
    for (int level = 0; level < 4; ++level) {
      result.pal_fraction[level] = static_cast<double>(controller.pal_bytes[level]) /
                                   static_cast<double>(pal_total);
    }
  }
  lt.ftl_writes = ssd.ftl_stats().writes;
  out.wall_seconds = rec.finish();
  out.digest = digest_of(result);
  return out;
}

}  // namespace perfbench
