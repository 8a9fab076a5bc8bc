#include "cluster/experiment.hpp"

#include "obs/json.hpp"

namespace nvmooc {

namespace {

void write_histogram_summary(obs::JsonWriter& w, const obs::HistogramSummary& s) {
  w.begin_object();
  w.field("count", s.count);
  w.field("mean", s.mean);
  w.field("min", s.min);
  w.field("p50", s.p50);
  w.field("p90", s.p90);
  w.field("p95", s.p95);
  w.field("p99", s.p99);
  w.field("p999", s.p999);
  w.field("max", s.max);
  w.end_object();
}

void write_points(obs::JsonWriter& w,
                  const std::vector<std::pair<Time, double>>& points) {
  w.begin_array();
  for (const auto& [t, v] : points) {
    w.begin_array();
    w.value(static_cast<double>(t) / static_cast<double>(kMillisecond));
    w.value(v);
    w.end_array();
  }
  w.end_array();
}

}  // namespace

std::string ExperimentResult::to_json() const {
  obs::JsonWriter w;
  w.begin_object();
  w.field("schema_version", std::uint64_t{1});
  w.field("name", name);
  w.field("media", std::string(to_string(media)));

  w.field("makespan_ps", (makespan).ps());
  w.field("makespan_ms", static_cast<double>(makespan) / static_cast<double>(kMillisecond));
  w.field("payload_bytes", (payload_bytes).value());
  w.field("internal_bytes", (internal_bytes).value());
  w.field("device_requests", device_requests);
  w.field("transactions", transactions);

  w.field("achieved_mbps", achieved_mbps);
  w.field("remaining_mbps", remaining_mbps);
  w.field("channel_utilization", channel_utilization);
  w.field("package_utilization", package_utilization);

  w.key("read_latency_us");
  write_histogram_summary(w, read_latency);

  w.key("latency");
  w.begin_object();
  w.key("stages_us");
  w.begin_object();
  for (int s = 0; s < obs::kLatencyStageCount; ++s) {
    w.key(obs::latency_stage_key(static_cast<obs::LatencyStage>(s)));
    write_histogram_summary(w, latency.stage[static_cast<std::size_t>(s)]);
  }
  w.end_object();
  w.key("read_total_us");
  write_histogram_summary(w, latency.read_total);
  w.key("write_total_us");
  write_histogram_summary(w, latency.write_total);
  w.end_object();

  w.key("phase_fraction");
  w.begin_object();
  for (int p = 0; p < kPhaseCount; ++p) {
    w.field(phase_key(static_cast<Phase>(p)), phase_fraction[p]);
  }
  w.end_object();

  w.key("phase_wait_us");
  w.begin_object();
  for (int p = 0; p < kPhaseCount; ++p) {
    w.key(phase_key(static_cast<Phase>(p)));
    write_histogram_summary(w, phase_wait[p]);
  }
  w.end_object();

  w.key("pal_fraction");
  w.begin_object();
  for (int level = 0; level < 4; ++level) {
    w.field(to_string(static_cast<ParallelismLevel>(level)), pal_fraction[level]);
  }
  w.end_object();

  w.key("queue_depth_bytes");
  write_points(w, queue_depth);

  w.key("wear");
  w.begin_object();
  w.field("total_erases", wear.total_erases);
  w.field("total_writes", wear.total_writes);
  w.field("touched_units", wear.touched_units);
  w.field("max_unit_erases", wear.max_unit_erases);
  w.field("imbalance", wear.imbalance);
  w.end_object();

  w.key("reliability");
  w.begin_object();
  w.field("corrected_reads", reliability.corrected_reads);
  w.field("read_retries", reliability.read_retries);
  w.field("uncorrectable_reads", reliability.uncorrectable_reads);
  w.field("die_stuck_reads", reliability.die_stuck_reads);
  w.field("channel_stalls", reliability.channel_stalls);
  w.field("retry_time_us",
          static_cast<double>(reliability.retry_time) / static_cast<double>(kMicrosecond));
  w.field("remapped_blocks", reliability.remapped_blocks);
  w.field("remap_relocations", reliability.remap_relocations);
  w.field("spare_blocks_used", reliability.spare_blocks_used);
  w.field("capacity_lost_bytes",
          (reliability.capacity_lost).value());
  w.field("degraded_requests", reliability.degraded_requests);
  w.field("degraded_bytes", (reliability.degraded_bytes).value());
  w.field("hard_failure", reliability.hard_failure);
  w.field("aborted", reliability.aborted);
  w.field("abort_reason", reliability.abort_reason);
  w.field("effective_mbps", reliability.effective_mbps);
  w.end_object();

  // Only audited replays carry the section: the schema for unaudited
  // runs (including the golden file pin) is unchanged.
  if (audit.enabled) {
    w.key("audit");
    w.begin_object();
    w.field("passed", audit.passed());
    w.field("violation_count", audit.violation_count);
    w.field("aborted", audit.aborted);
    w.field("requests_tracked", audit.requests_tracked);
    w.field("requests_completed", audit.requests_completed);
    w.field("requested_bytes", (audit.requested_bytes).value());
    w.field("granted_payload_bytes", (audit.granted_payload_bytes).value());
    w.field("granted_internal_bytes", (audit.granted_internal_bytes).value());
    w.field("media_payload_bytes", (audit.media_payload_bytes).value());
    w.field("media_internal_bytes", (audit.media_internal_bytes).value());
    w.field("media_rmw_bytes", (audit.media_rmw_bytes).value());
    w.field("media_retry_bytes", (audit.media_retry_bytes).value());
    w.field("timelines", audit.timelines);
    w.field("reservations", audit.reservations);
    w.field("ftl_checks", audit.ftl_checks);
    w.key("violations");
    w.begin_array();
    for (const check::AuditViolation& v : audit.violations) {
      w.begin_object();
      w.field("invariant", v.invariant);
      w.field("detail", v.detail);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  // Same contract as "audit": only profiled replays carry the section.
  if (profile.enabled) {
    w.key("profile");
    w.begin_object();
    w.field("makespan_ps", (profile.makespan).ps());
    w.field("attributed_ps", (profile.attributed).ps());
    w.field("unattributed_ps", (profile.unattributed).ps());
    w.field("requests", profile.requests);
    w.field("segments", profile.segments);
    w.field("gates", profile.gates);
    w.field("dropped_edges", profile.dropped_edges);
    w.field("critical_path_hops", profile.critical_path_hops);
    w.field("io_path_device_requests", profile.io_path_device_requests);
    w.field("io_path_internal_requests", profile.io_path_internal_requests);
    w.field("window_ps", (profile.window).ps());
    w.key("blame");
    w.begin_array();
    for (const obs::BlameEntry& b : profile.blame) {
      w.begin_object();
      w.field("layer", b.layer);
      w.field("kind", b.kind);
      w.field("resource", b.resource);
      w.field("time_ps", (b.time).ps());
      w.field("share", profile.makespan > Time{}
                           ? static_cast<double>(b.time) /
                                 static_cast<double>(profile.makespan)
                           : 0.0);
      w.field("hops", b.hops);
      w.end_object();
    }
    w.end_array();
    w.key("utilization");
    w.begin_array();
    for (const obs::UtilizationSeries& s : profile.utilization) {
      w.begin_object();
      w.field("resource", s.resource);
      w.field("kind", s.kind);
      w.key("points");
      write_points(w, s.points);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  // Same contract again: only --speed-report replays carry the section.
  if (host.enabled) {
    w.key("host");
    w.begin_object();
    w.field("wall_seconds", host.wall_seconds);
    w.field("sim_time_ms",
            static_cast<double>(host.sim_time) / static_cast<double>(kMillisecond));
    w.field("events_total", host.events_total);
    w.field("events_per_sec", host.events_per_sec);
    w.field("sim_time_per_wall_second", host.sim_time_per_wall_second);
    w.key("event_counts");
    w.begin_object();
    for (int e = 0; e < obs::kHostEventCount; ++e) {
      w.field(obs::host_event_name(static_cast<obs::HostEvent>(e)),
              host.events[static_cast<std::size_t>(e)]);
    }
    w.end_object();
    w.field("requests_total", host.requests_total);
    w.field("requests_completed", host.requests_completed);
    w.field("heartbeats", host.heartbeats);
    w.field("peak_rss_bytes", host.peak_rss_bytes);
    w.key("timeline_alloc");
    w.begin_object();
    w.field("alloc_bytes", host.timeline_alloc.allocated_bytes);
    w.field("alloc_count", host.timeline_alloc.allocations);
    w.field("alloc_peak_live_bytes", host.timeline_alloc.peak_live_bytes);
    w.end_object();
    w.key("sections");
    w.begin_array();
    for (const obs::HostSectionStat& s : host.sections) {
      w.begin_object();
      w.field("name", s.name);
      w.field("wall_seconds", s.wall_seconds);
      w.field("enters", s.enters);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  w.key("metrics");
  w.begin_array();
  for (const obs::MetricSnapshot& m : metrics) {
    w.begin_object();
    w.field("name", m.name);
    w.field("kind", m.kind);
    if (m.kind == "histogram") {
      w.key("summary");
      write_histogram_summary(w, m.histogram);
    } else {
      w.field("value", m.value);
    }
    w.end_object();
  }
  w.end_array();

  w.end_object();
  return w.take();
}

}  // namespace nvmooc
