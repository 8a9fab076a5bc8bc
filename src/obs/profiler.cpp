#include "obs/profiler.hpp"

#include <algorithm>
#include <cstdio>

#include "common/logging.hpp"
#include "obs/latency.hpp"

namespace nvmooc::obs {

namespace {

const char* path_kind_key(PathKind kind) {
  switch (kind) {
    case PathKind::kEngineWindow: return "engine_window";
    case PathKind::kEngineCpu: return "engine_cpu";
    case PathKind::kIoPathSoftware: return "io_path_software";
    case PathKind::kNetworkRpc: return "network_rpc";
    case PathKind::kLinkWait: return "link_wait";
    case PathKind::kLinkBusy: return "link_busy";
    case PathKind::kChannelWait: return "channel_wait";
    case PathKind::kChannelBus: return "channel_bus";
    case PathKind::kFlashBusWait: return "flash_bus_wait";
    case PathKind::kFlashBus: return "flash_bus";
    case PathKind::kCellWait: return "cell_wait";
    case PathKind::kCellBusy: return "cell_busy";
    case PathKind::kApplication: return "application";
    case PathKind::kUnattributed: return "unattributed";
  }
  return "?";
}

/// Busy kinds feed the utilization timelines; waits and software time do
/// not occupy a resource.
bool occupies_resource(PathKind kind) {
  return kind == PathKind::kChannelBus || kind == PathKind::kFlashBus ||
         kind == PathKind::kCellBusy;
}

}  // namespace

const char* path_layer(PathKind kind) {
  switch (kind) {
    case PathKind::kEngineWindow:
    case PathKind::kEngineCpu: return "engine";
    case PathKind::kIoPathSoftware: return "io_path";
    case PathKind::kNetworkRpc: return "network";
    case PathKind::kLinkWait:
    case PathKind::kLinkBusy: return "interconnect";
    case PathKind::kChannelWait:
    case PathKind::kChannelBus: return "controller.channel";
    case PathKind::kFlashBusWait:
    case PathKind::kFlashBus: return "controller.flash_bus";
    case PathKind::kCellWait:
    case PathKind::kCellBusy: return "media.cell";
    case PathKind::kApplication: return "application";
    case PathKind::kUnattributed: return "unattributed";
  }
  return "?";
}

Profiler::Profiler()
    : probe::Subscriber(probe::bit(probe::Kind::kInterval) | probe::bit(probe::Kind::kTxn) |
                        probe::bit(probe::Kind::kReplay) | probe::bit(probe::Kind::kRequest)),
      window_id_(intern("engine.window")),
      cpu_id_(intern("engine.cpu")),
      rpc_id_(intern("net.rpc")) {}

std::uint32_t Profiler::intern(const std::string& name) {
  const auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const std::uint32_t id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(name);
  name_ids_.emplace(name, id);
  return id;
}

void Profiler::segment(PathKind kind, std::uint32_t resource, Time start, Time end) {
  if (end <= start) return;
  if (open_request_ == 0) {
    // Device activity outside any engine-issued request is dropped, not
    // misattributed.
    ++dropped_edges_;
    return;
  }
  requests_[open_request_ - 1].segments.push_back({start, end, resource, kind});
  ++segment_count_;
}

// ---------------------------------------------------------------------------
// Probe subscription: the request chains, from the probe stream.
// ---------------------------------------------------------------------------

std::uint32_t Profiler::site_id(probe::Resource resource, const probe::Site& site) {
  // Steps and stalls on a channel share it; ports are per package and
  // cells per die (a die's planes are one resource here).
  const bool channel = resource == probe::Resource::kChannel ||
                       resource == probe::Resource::kChannelStall;
  const bool cell = resource == probe::Resource::kCell;
  const std::uint64_t key = channel ? site.channel
                                    : (std::uint64_t{cell ? 2u : 1u} << 62) |
                                          (std::uint64_t{site.channel} << 32) |
                                          (std::uint64_t{site.package} << 16) |
                                          (cell ? site.die : 0);
  const auto [it, fresh] = site_ids_.try_emplace(key, 0);
  if (!fresh) return it->second;
  std::string name = probe::resource_name(cell ? probe::Resource::kChannel : resource, site);
  // A die's planes are one resource here, so its name stops at the die.
  if (cell) name += ".pkg" + std::to_string(site.package) + ".die" + std::to_string(site.die);
  return it->second = intern(name);
}

void Profiler::on_interval(const probe::Interval& iv) {
  using probe::Resource;
  // (wait, busy) kinds and resource per interval; a wait-only resource
  // has no busy half (its interval is empty).
  PathKind wait = PathKind::kChannelWait;
  PathKind busy = PathKind::kChannelBus;
  std::uint32_t id = 0;
  switch (iv.resource) {
    case Resource::kLink:
      if (iv.label->empty()) return;
      wait = PathKind::kLinkWait;
      busy = PathKind::kLinkBusy;
      id = intern(*iv.label);
      if (iv.start < iv.end) link_intervals_[id].emplace_back(iv.start, iv.end);
      break;
    case Resource::kRpc:
      wait = PathKind::kNetworkRpc;
      id = rpc_id_;
      break;
    case Resource::kPort:
      wait = PathKind::kFlashBusWait;
      busy = PathKind::kFlashBus;
      id = site_id(iv.resource, iv.site);
      break;
    case Resource::kCell:
      wait = PathKind::kCellWait;
      busy = PathKind::kCellBusy;
      id = site_id(iv.resource, iv.site);
      break;
    case Resource::kChannelStall:
    case Resource::kChannel:
      id = site_id(iv.resource, iv.site);
      break;
  }
  segment(wait, id, iv.earliest, iv.start);
  segment(busy, id, iv.start, iv.end);
}

void Profiler::on_replay_begin(std::uint64_t /*posix_requests*/) {
  cpu_pred_ = 0;
  barrier_pred_ = 0;
  drain_pred_ = 0;
}

void Profiler::on_posix(const probe::Posix& posix) {
  expanded_device_requests_ += posix.device_requests - posix.internal_requests;
  expanded_internal_requests_ += posix.internal_requests;
}

void Profiler::on_request_open(const probe::RequestOpen& request) {
  // The walk later follows the winning gate.
  RequestRecord& r = requests_.emplace_back();
  open_request_ = requests_.size();
  r.gates.push_back({request.cpu_gate, GateKind::kCpu, cpu_pred_});
  r.gates.push_back({request.barrier_gate, GateKind::kBarrier, barrier_pred_});
  r.gates.push_back({request.app_gate, GateKind::kApp, 0});
  if (request.barrier) r.gates.push_back({request.drain_gate, GateKind::kDrain, drain_pred_});
  gate_count_ += r.gates.size();
  open_barrier_ = request.barrier;
  open_drain_gate_ = request.drain_gate;
}

void Profiler::on_request_close(const probe::RequestClose& request) {
  // Host-side prefix of the causal chain: flow-control wait, core
  // serialisation, I/O-path software latency. Together with the device
  // and link segments recorded while the request was open these cover
  // [ready, completion] contiguously.
  const std::uint64_t id = open_request_;
  if (id == 0) return;
  const PhaseLedger& l = request.ledger;
  const Time cpu_free = l.admit + l.stage[static_cast<int>(probe::LatencyStage::kCpu)];
  segment(PathKind::kEngineWindow, window_id_, l.ready, l.admit);
  segment(PathKind::kEngineCpu, cpu_id_, l.admit, cpu_free);
  segment(PathKind::kIoPathSoftware, intern(*request.io_path + ".software"), cpu_free, l.issue);
  RequestRecord& r = requests_[id - 1];
  r.ready = l.ready;
  r.issue = l.issue;
  r.completion = l.completion;
  r.media_begin = l.media_begin;
  r.media_end = l.media_end;
  r.complete = true;
  open_request_ = 0;
  cpu_pred_ = id;
  if (l.completion >= open_drain_gate_) drain_pred_ = id;
  if (open_barrier_) barrier_pred_ = id;
}

// ---------------------------------------------------------------------------
// Critical-path extraction: one backward walk from the makespan to t=0.
// Within a request, the walk consumes the segment whose end matches the
// current time exactly (the chains recorded by the engine/controller are
// contiguous, so one always exists); at the request's ready time it
// follows the winning dependency gate into the predecessor request.
// Every step covers [new_t, t] exactly once, so the blame buckets sum to
// the makespan in integer picoseconds — the self-check the tests and
// --audit assert.
// ---------------------------------------------------------------------------

ProfileReport Profiler::report(Time makespan, std::uint32_t windows) const {
  ProfileReport out;
  out.enabled = true;
  out.makespan = makespan;
  out.requests = requests_.size();
  out.segments = segment_count_;
  out.gates = gate_count_;
  out.dropped_edges = dropped_edges_;
  out.io_path_device_requests = expanded_device_requests_;
  out.io_path_internal_requests = expanded_internal_requests_;

  // Blame accumulation keyed by (kind, resource); std::map keeps the
  // aggregation order deterministic.
  std::map<std::pair<int, std::uint32_t>, std::pair<Time, std::uint64_t>> blame;
  const auto charge = [&](PathKind kind, std::uint32_t resource, Time lo, Time hi) {
    if (hi <= lo) return;
    auto& bucket = blame[{static_cast<int>(kind), resource}];
    bucket.first += hi - lo;
    ++bucket.second;
    ++out.critical_path_hops;
    if (kind == PathKind::kUnattributed) out.unattributed += hi - lo;
  };

  // The request whose completion set the makespan (latest wins ties, to
  // match the engine's all_done update order).
  const RequestRecord* head = nullptr;
  for (const RequestRecord& r : requests_) {
    if (!r.complete) continue;
    if (head == nullptr || r.completion >= head->completion) head = &r;
  }

  // Per-request segment index sorted by (end, start, insertion), built
  // lazily for the requests the walk actually visits.
  std::map<const RequestRecord*, std::vector<std::uint32_t>> order_cache;
  const auto order_of = [&](const RequestRecord* r) -> const std::vector<std::uint32_t>& {
    auto it = order_cache.find(r);
    if (it != order_cache.end()) return it->second;
    std::vector<std::uint32_t> order(r->segments.size());
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       const Segment& sa = r->segments[a];
                       const Segment& sb = r->segments[b];
                       if (sa.end != sb.end) return sa.end < sb.end;
                       return sa.start < sb.start;
                     });
    return order_cache.emplace(r, std::move(order)).first->second;
  };

  if (head != nullptr && makespan > Time{}) {
    const RequestRecord* r = head;
    Time t = makespan;
    // Hard cap: the walk is structurally finite (time never increases,
    // and equal-time gate hops strictly decrease the request id), but a
    // broken hook site must degrade into "unattributed", not a hang.
    std::uint64_t budget = segment_count_ * 2 + requests_.size() * 8 + 1024;
    while (t > Time{} && budget-- > 0) {
      if (t > r->ready) {
        // Consume the segment ending exactly at t; prefer the shortest
        // (largest start) so blame stays fine-grained on exact ties.
        const std::vector<std::uint32_t>& order = order_of(r);
        const auto ub = std::upper_bound(
            order.begin(), order.end(), t,
            [&](Time value, std::uint32_t idx) { return value < r->segments[idx].end; });
        if (ub != order.begin()) {
          const Segment& s = r->segments[*(ub - 1)];
          if (s.end == t) {
            charge(s.kind, s.resource, s.start, t);
            t = s.start;
            continue;
          }
          // Contiguity gap: fall to the nearest earlier segment end (or
          // the request's ready time) and book the hole as unattributed.
          const Time floor = std::max(r->ready, s.end);
          charge(PathKind::kUnattributed, 0, floor, t);
          t = floor;
          continue;
        }
        charge(PathKind::kUnattributed, 0, r->ready, t);
        t = r->ready;
        continue;
      }

      // t == ready: follow the winning dependency gate backwards.
      const GateCandidate* winner = nullptr;
      for (const GateCandidate& g : r->gates) {
        if (winner == nullptr || g.at > winner->at ||
            (g.at == winner->at && g.kind < winner->kind)) {
          winner = &g;
        }
      }
      if (winner == nullptr) {
        charge(PathKind::kUnattributed, 0, Time{}, t);
        t = Time{};
        break;
      }
      if (winner->at < t) {
        // ready exceeded every recorded candidate — a hook-site bug.
        charge(PathKind::kUnattributed, 0, winner->at, t);
        t = winner->at;
        continue;
      }
      const RequestRecord* pred = winner->pred >= 1 && winner->pred <= requests_.size()
                                      ? &requests_[winner->pred - 1]
                                      : nullptr;
      if (winner->kind != GateKind::kApp && pred != nullptr) {
        r = pred;  // Same t: the predecessor has a segment ending here.
        continue;
      }
      // Application think time: blamed from the runner-up dependency's
      // release (the chain resumes there) down to t.
      const GateCandidate* runner = nullptr;
      for (const GateCandidate& g : r->gates) {
        if (&g == winner) continue;
        if (runner == nullptr || g.at > runner->at ||
            (g.at == runner->at && g.kind < runner->kind)) {
          runner = &g;
        }
      }
      const RequestRecord* next =
          runner != nullptr && runner->pred >= 1 && runner->pred <= requests_.size()
              ? &requests_[runner->pred - 1]
              : nullptr;
      if (runner == nullptr || runner->at <= Time{} || next == nullptr) {
        charge(PathKind::kApplication, 0, Time{}, t);
        t = Time{};
        break;
      }
      charge(PathKind::kApplication, 0, runner->at, t);
      t = runner->at;
      r = next;
    }
    if (t > Time{}) {
      // Walk budget exhausted (should never happen): keep the invariant
      // that the blame buckets cover [0, makespan].
      charge(PathKind::kUnattributed, 0, Time{}, t);
    }
  }

  for (const auto& [key, bucket] : blame) {
    const PathKind kind = static_cast<PathKind>(key.first);
    BlameEntry entry;
    entry.layer = path_layer(kind);
    entry.kind = path_kind_key(kind);
    entry.resource = kind == PathKind::kApplication     ? "application"
                     : kind == PathKind::kUnattributed  ? "unattributed"
                                                        : names_[key.second];
    entry.time = bucket.first;
    entry.hops = bucket.second;
    out.attributed += entry.time;
    out.blame.push_back(std::move(entry));
  }
  std::stable_sort(out.blame.begin(), out.blame.end(),
                   [](const BlameEntry& a, const BlameEntry& b) {
                     if (a.time != b.time) return a.time > b.time;
                     if (a.layer != b.layer) return a.layer < b.layer;
                     if (a.resource != b.resource) return a.resource < b.resource;
                     return a.kind < b.kind;
                   });

  // ---- Utilization timelines -------------------------------------------
  if (makespan > Time{}) {
    const std::int64_t span = makespan.ps();
    const std::int64_t count = std::max<std::int64_t>(
        1, std::min<std::int64_t>(windows == 0 ? 1 : windows, span));
    const std::int64_t width = (span + count - 1) / count;
    const std::int64_t n = (span + width - 1) / width;
    out.window = Time{width};

    const auto window_width = [&](std::int64_t w) {
      return std::min(span, (w + 1) * width) - w * width;
    };
    const auto accumulate = [&](std::vector<std::int64_t>& busy, Time start, Time end) {
      const std::int64_t lo = std::max<std::int64_t>(0, start.ps());
      const std::int64_t hi = std::min(span, end.ps());
      if (hi <= lo) return;
      for (std::int64_t w = lo / width; w * width < hi && w < n; ++w) {
        const std::int64_t wlo = w * width;
        const std::int64_t whi = std::min(span, wlo + width);
        busy[static_cast<std::size_t>(w)] +=
            std::min(hi, whi) - std::max(lo, wlo);
      }
    };

    // Busy intervals per resource: controller occupancy from the request
    // segments, link occupancy from every named link transfer. Unioned
    // per resource first — a die with two active planes is busy, not
    // 200% busy.
    std::map<std::uint32_t, std::vector<std::pair<Time, Time>>> by_resource =
        link_intervals_;
    for (const RequestRecord& r : requests_) {
      for (const Segment& s : r.segments) {
        if (occupies_resource(s.kind)) by_resource[s.resource].emplace_back(s.start, s.end);
      }
    }
    for (auto& [resource, intervals] : by_resource) {
      std::sort(intervals.begin(), intervals.end());
      UtilizationSeries series;
      series.resource = names_[resource];
      series.kind = "busy_fraction";
      std::vector<std::int64_t> busy(static_cast<std::size_t>(n), 0);
      Time merged_start;
      Time merged_end;
      bool open = false;
      for (const auto& [s, e] : intervals) {
        if (open && s <= merged_end) {
          merged_end = std::max(merged_end, e);
          continue;
        }
        if (open) accumulate(busy, merged_start, merged_end);
        merged_start = s;
        merged_end = e;
        open = true;
      }
      if (open) accumulate(busy, merged_start, merged_end);
      series.points.reserve(static_cast<std::size_t>(n));
      for (std::int64_t w = 0; w < n; ++w) {
        series.points.emplace_back(Time{w * width},
                                   static_cast<double>(busy[static_cast<std::size_t>(w)]) /
                                       static_cast<double>(window_width(w)));
      }
      out.utilization.push_back(std::move(series));
    }
    std::sort(out.utilization.begin(), out.utilization.end(),
              [](const UtilizationSeries& a, const UtilizationSeries& b) {
                return a.resource < b.resource;
              });

    // Queue depth: time-averaged in-flight requests per window, at the
    // engine (ready -> completion) and at the device (media residency).
    const auto depth_series = [&](const char* name, const bool device) {
      UtilizationSeries series;
      series.resource = name;
      series.kind = "queue_depth";
      std::vector<std::int64_t> occupancy(static_cast<std::size_t>(n), 0);
      for (const RequestRecord& r : requests_) {
        if (!r.complete) continue;
        accumulate(occupancy, device ? r.media_begin : r.ready,
                   device ? r.media_end : r.completion);
      }
      series.points.reserve(static_cast<std::size_t>(n));
      for (std::int64_t w = 0; w < n; ++w) {
        series.points.emplace_back(
            Time{w * width}, static_cast<double>(occupancy[static_cast<std::size_t>(w)]) /
                                 static_cast<double>(window_width(w)));
      }
      out.utilization.push_back(std::move(series));
    };
    depth_series("engine.inflight_requests", false);
    depth_series("ssd.inflight_requests", true);
  }

  return out;
}

std::string ProfileReport::summary() const {
  std::string out;
  char line[256];
  const double span_ms = static_cast<double>(makespan) / static_cast<double>(kMillisecond);
  std::snprintf(line, sizeof line,
                "critical path: %.3f ms attributed of %.3f ms makespan "
                "(%lld ps unattributed, %llu hops, %llu requests, %llu segments)\n",
                static_cast<double>(attributed) / static_cast<double>(kMillisecond),
                span_ms, static_cast<long long>(unattributed.ps()),
                static_cast<unsigned long long>(critical_path_hops),
                static_cast<unsigned long long>(requests),
                static_cast<unsigned long long>(segments));
  out += line;
  std::snprintf(line, sizeof line, "  %-22s %-28s %-16s %10s %7s\n", "layer",
                "resource", "kind", "time(ms)", "share");
  out += line;
  const std::size_t shown = std::min<std::size_t>(blame.size(), 20);
  Time rest;
  for (std::size_t i = 0; i < blame.size(); ++i) {
    if (i >= shown) {
      rest += blame[i].time;
      continue;
    }
    const BlameEntry& b = blame[i];
    std::snprintf(line, sizeof line, "  %-22s %-28s %-16s %10.3f %6.1f%%\n",
                  b.layer.c_str(), b.resource.c_str(), b.kind.c_str(),
                  static_cast<double>(b.time) / static_cast<double>(kMillisecond),
                  makespan > Time{} ? 100.0 * static_cast<double>(b.time) /
                                          static_cast<double>(makespan)
                                    : 0.0);
    out += line;
  }
  if (rest > Time{}) {
    std::snprintf(line, sizeof line, "  %-22s %-28s %-16s %10.3f %6.1f%%\n", "...",
                  "(remaining buckets)", "",
                  static_cast<double>(rest) / static_cast<double>(kMillisecond),
                  makespan > Time{} ? 100.0 * static_cast<double>(rest) /
                                          static_cast<double>(makespan)
                                    : 0.0);
    out += line;
  }
  return out;
}

}  // namespace nvmooc::obs
