// Tests for the cross-layer invariant auditor (src/check): the checker
// itself (fed hand-crafted bad event sequences), the audited replay path
// end to end (every seed configuration must pass with zero violations and
// identical timing to an unaudited replay), and the FTL mapping-soundness
// sweep under bad-block retirement churn.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/audit.hpp"
#include "cluster/configs.hpp"
#include "cluster/engine.hpp"
#include "ooc/workload.hpp"
#include "ssd/ftl.hpp"

namespace nvmooc {
namespace {

using check::AuditReport;
using check::AuditSession;
using check::Auditor;
using check::MediaKind;

Trace small_ooc_trace(Bytes dataset = 16 * MiB, Bytes checkpoint = 1 * MiB) {
  SyntheticWorkloadParams params;
  params.dataset_bytes = dataset;
  params.tile_bytes = 8 * MiB;
  params.sweeps = 1;
  params.checkpoint_bytes = checkpoint;  // Writes exercise RMW + journals.
  return synthesize_ooc_trace(params);
}

SsdGeometry small_geometry() {
  SsdGeometry g;
  g.channels = 2;
  g.packages_per_channel = 1;
  g.dies_per_package = 1;
  return g;
}

NvmTiming tiny_timing() {
  NvmTiming t = slc_timing();
  t.blocks_per_plane = 4;
  t.pages_per_block = 8;
  return t;
}

// ---------- causality: the checker against bad event sequences -------------

TEST(AuditorCausality, CleanLifecyclePasses) {
  Auditor aud;
  const std::uint64_t id = aud.request_issued(Time{10});
  aud.request_admitted(id, Time{20});
  aud.request_dispatched(id, Time{20});
  aud.request_media(id, Time{30}, Time{40});
  aud.request_completed(id, Time{50});
  const AuditReport report = aud.report();
  EXPECT_TRUE(report.passed()) << report.summary();
  EXPECT_EQ(report.requests_tracked, 1u);
  EXPECT_EQ(report.requests_completed, 1u);
}

TEST(AuditorCausality, DoubleCompletionIsViolation) {
  Auditor aud;
  const std::uint64_t id = aud.request_issued(Time{10});
  aud.request_admitted(id, Time{20});
  aud.request_dispatched(id, Time{20});
  aud.request_media(id, Time{30}, Time{40});
  aud.request_completed(id, Time{50});
  aud.request_completed(id, Time{60});
  const AuditReport report = aud.report();
  EXPECT_FALSE(report.passed());
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].invariant, "causality");
  EXPECT_NE(report.violations[0].detail.find("completed twice"), std::string::npos);
  EXPECT_EQ(report.requests_completed, 1u);  // Counted once regardless.
}

TEST(AuditorCausality, TimeGoingBackwardsIsViolation) {
  Auditor aud;
  const std::uint64_t id = aud.request_issued(Time{100});
  aud.request_admitted(id, Time{50});  // Admission precedes issue.
  EXPECT_EQ(aud.violation_count(), 1u);
}

TEST(AuditorCausality, StageSkipAndUnknownIdAreViolations) {
  Auditor aud;
  const std::uint64_t id = aud.request_issued(Time{10});
  aud.request_media(id, Time{20}, Time{30});  // Skips admitted+dispatched.
  EXPECT_EQ(aud.violation_count(), 1u);
  aud.request_completed(id + 7, Time{40});  // Never issued.
  EXPECT_EQ(aud.violation_count(), 2u);
}

TEST(AuditorCausality, IncompleteRequestReportedAtReplayEnd) {
  Auditor aud;
  const std::uint64_t id = aud.request_issued(Time{10});
  aud.request_admitted(id, Time{20});
  const AuditReport report = aud.report();
  EXPECT_FALSE(report.passed());
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_NE(report.violations[0].detail.find("never completed"), std::string::npos);
}

TEST(AuditorCausality, ReportIsPure) {
  Auditor aud;
  static_cast<void>(aud.request_issued(Time{10}));  // Left incomplete.
  const AuditReport first = aud.report();
  const AuditReport second = aud.report();
  EXPECT_EQ(first.violation_count, 1u);
  EXPECT_EQ(second.violation_count, 1u);  // Not appended twice.
  EXPECT_EQ(aud.violation_count(), 0u);   // Live state untouched.
}

// ---------- conservation ----------------------------------------------------

TEST(AuditorConservation, GrantMismatchIsViolation) {
  Auditor aud;
  aud.posix_request(Bytes{4096});
  aud.io_path_grant(Bytes{4096}, Bytes{4000}, Bytes{512});
  EXPECT_EQ(aud.violation_count(), 1u);
  const AuditReport report = aud.report();
  EXPECT_EQ(report.granted_payload_bytes, Bytes{4000});
  EXPECT_EQ(report.granted_internal_bytes, Bytes{512});
}

TEST(AuditorConservation, AggregateLeakCaughtAtReplayEnd) {
  Auditor aud;
  aud.posix_request(Bytes{4096});
  aud.posix_request(Bytes{4096});
  aud.io_path_grant(Bytes{4096}, Bytes{4096}, Bytes{});
  // Second request never granted: only the end-of-replay sweep sees it.
  EXPECT_EQ(aud.violation_count(), 0u);
  const AuditReport report = aud.report();
  EXPECT_FALSE(report.passed());
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_NE(report.violations[0].detail.find("byte leak"), std::string::npos);
}

TEST(AuditorConservation, AbortedReplaySkipsAggregateEquality) {
  Auditor aud;
  aud.posix_request(Bytes{4096});  // Never granted.
  aud.replay_aborted();
  const AuditReport report = aud.report();
  EXPECT_TRUE(report.aborted);
  EXPECT_TRUE(report.passed()) << report.summary();
}

TEST(AuditorConservation, MediaShortfallIsViolation) {
  Auditor aud;
  aud.media_request_begin(Bytes{8192}, /*internal=*/false);
  aud.media_transfer(Bytes{4096}, MediaKind::kRequest, 0);
  aud.media_request_end();
  EXPECT_EQ(aud.violation_count(), 1u);
  const AuditReport report = aud.report();
  EXPECT_NE(report.violations[0].detail.find("mismatch"), std::string::npos);
}

TEST(AuditorConservation, SideTrafficBucketsDoNotCountTowardTheRequest) {
  Auditor aud;
  aud.media_request_begin(Bytes{8192}, /*internal=*/false);
  aud.media_transfer(Bytes{4096}, MediaKind::kRequest, 0);
  aud.media_transfer(Bytes{2048}, MediaKind::kRmw, 0);    // RMW pre-read.
  aud.media_transfer(Bytes{16384}, MediaKind::kGc, 0);    // GC relocation.
  aud.media_transfer(Bytes{4096}, MediaKind::kRequest, 3);  // 3 ECC retries.
  aud.media_request_end();
  const AuditReport report = aud.report();
  EXPECT_TRUE(report.passed()) << report.summary();
  EXPECT_EQ(report.media_payload_bytes, Bytes{8192});
  EXPECT_EQ(report.media_rmw_bytes, Bytes{2048});
  EXPECT_EQ(report.media_internal_bytes, Bytes{16384});
  EXPECT_EQ(report.media_retry_bytes, Bytes{3 * 4096});
}

TEST(AuditorConservation, ReplayEndingMidRequestIsViolation) {
  Auditor aud;
  aud.media_request_begin(Bytes{8192}, false);
  const AuditReport report = aud.report();
  EXPECT_FALSE(report.passed());
  EXPECT_NE(report.violations[0].detail.find("mid device request"),
            std::string::npos);
}

// ---------- occupancy -------------------------------------------------------

TEST(AuditorOccupancy, OverlapDetectedTouchingIsNot) {
  Auditor aud;
  int resource = 0;
  aud.timeline_reserved(&resource, "ch0", Time{0}, Time{0}, Time{100});
  aud.timeline_reserved(&resource, "ch0", Time{100}, Time{100}, Time{200});  // Touching: fine.
  EXPECT_EQ(aud.violation_count(), 0u);
  aud.timeline_reserved(&resource, "ch0", Time{150}, Time{150}, Time{250});  // Overlaps.
  EXPECT_EQ(aud.violation_count(), 1u);
  const AuditReport report = aud.report();
  EXPECT_EQ(report.timelines, 1u);
  EXPECT_EQ(report.reservations, 3u);
  EXPECT_NE(report.violations[0].detail.find("double booking"), std::string::npos);
  EXPECT_NE(report.violations[0].detail.find("ch0"), std::string::npos);
}

TEST(AuditorOccupancy, DistinctResourcesAreIndependent) {
  Auditor aud;
  int a = 0;
  int b = 0;
  aud.timeline_reserved(&a, "", Time{0}, Time{0}, Time{100});
  aud.timeline_reserved(&b, "", Time{50}, Time{50}, Time{150});  // Different resource.
  EXPECT_EQ(aud.violation_count(), 0u);
  EXPECT_EQ(aud.report().timelines, 2u);
}

TEST(AuditorOccupancy, ReleaseForgetsTheResource) {
  Auditor aud;
  int resource = 0;
  aud.timeline_reserved(&resource, "", Time{0}, Time{0}, Time{100});
  aud.timeline_released(&resource);
  // Same address, new lifetime: the old interval must not haunt it.
  aud.timeline_reserved(&resource, "", Time{50}, Time{50}, Time{150});
  EXPECT_EQ(aud.violation_count(), 0u);
}

// The device folds its timelines behind the latest issue time, so a grant
// ready before it would reach into history that is gone.
TEST(AuditorCausality, GrantBeforeIssueWatermarkIsViolation) {
  Auditor aud;
  int resource = 0;
  const std::string label = "ch3";
  probe::RequestOpen open;
  open.ready = Time{100};
  open.admit = Time{100};
  open.issue = Time{500};
  open.watermark = Time{500};
  aud.on_request_open(open);
  probe::Interval interval;
  interval.object = &resource;
  interval.label = &label;
  interval.earliest = Time{500};
  interval.start = Time{600};
  interval.end = Time{700};
  aud.on_interval(interval);  // Ready at the watermark: fine.
  EXPECT_EQ(aud.violation_count(), 0u);
  interval.earliest = Time{499};
  interval.start = Time{700};
  interval.end = Time{800};
  aud.on_interval(interval);
  EXPECT_EQ(aud.violation_count(), 1u);
  const AuditReport report = aud.report();
  ASSERT_FALSE(report.violations.empty());
  EXPECT_EQ(report.violations[0].invariant, "causality");
  EXPECT_NE(report.violations[0].detail.find("before the issue watermark 500ps"),
            std::string::npos);
  EXPECT_NE(report.violations[0].detail.find("ch3"), std::string::npos);
}

// Grants that end by the watermark are pruned; a grant that respects the
// watermark still meets every interval it could overlap.
TEST(AuditorOccupancy, PruningBehindWatermarkKeepsOverlapCheck) {
  Auditor aud;
  int resource = 0;
  aud.timeline_reserved(&resource, "", Time{0}, Time{0}, Time{100});
  aud.timeline_reserved(&resource, "", Time{0}, Time{300}, Time{600});
  probe::RequestOpen open;
  open.issue = Time{200};
  open.watermark = Time{200};
  aud.on_request_open(open);
  aud.timeline_reserved(&resource, "", Time{200}, Time{200}, Time{300});  // Touching: fine.
  EXPECT_EQ(aud.violation_count(), 0u);
  aud.timeline_reserved(&resource, "", Time{200}, Time{550}, Time{650});  // Overlaps.
  EXPECT_EQ(aud.violation_count(), 1u);
  EXPECT_EQ(aud.report().timelines, 1u);
}

TEST(AuditorOccupancy, ZeroWidthGrantsAreIgnored) {
  Auditor aud;
  int resource = 0;
  aud.timeline_reserved(&resource, "", Time{100}, Time{100}, Time{100});
  EXPECT_EQ(aud.report().reservations, 0u);
}

// ---------- violation accounting -------------------------------------------

TEST(AuditorReport, ViolationCapKeepsExactCount) {
  Auditor aud;
  for (int i = 0; i < 40; ++i) {
    aud.violation("causality", "synthetic violation " + std::to_string(i));
  }
  const AuditReport report = aud.report();
  EXPECT_EQ(report.violation_count, 40u);
  EXPECT_EQ(report.violations.size(), 32u);  // kMaxRecordedViolations.
  EXPECT_NE(report.summary().find("8 more violation(s) elided"),
            std::string::npos);
}

TEST(AuditSessionTest, InstallsThreadLocallyAndRestores) {
  EXPECT_EQ(check::auditor(), nullptr);
  {
    AuditSession outer;
    EXPECT_EQ(check::auditor(), &outer.auditor());
    {
      AuditSession inner;
      EXPECT_EQ(check::auditor(), &inner.auditor());
    }
    EXPECT_EQ(check::auditor(), &outer.auditor());
  }
  EXPECT_EQ(check::auditor(), nullptr);
}

// ---------- audited replays end to end --------------------------------------

TEST(AuditedReplay, PassesAndLeavesTimingBitIdentical) {
  const Trace trace = small_ooc_trace();
  const ExperimentConfig config = cnl_ufs_config(NvmType::kTlc);

  const ExperimentResult plain = run_experiment(config, trace);
  EXPECT_FALSE(plain.audit.enabled);

  AuditSession session;
  const ExperimentResult audited = run_experiment(config, trace);
  ASSERT_TRUE(audited.audit.enabled);
  EXPECT_TRUE(audited.audit.passed()) << audited.audit.summary();

  // Auditing must observe, never perturb: the replay's timing is the
  // product under test and CI diffs the headline JSON on exactly this.
  EXPECT_EQ(plain.makespan, audited.makespan);
  EXPECT_EQ(plain.payload_bytes, audited.payload_bytes);
  EXPECT_EQ(plain.internal_bytes, audited.internal_bytes);

  // The checks demonstrably ran.
  EXPECT_GT(audited.audit.requests_tracked, 0u);
  EXPECT_EQ(audited.audit.requests_tracked, audited.audit.requests_completed);
  EXPECT_EQ(audited.audit.requested_bytes, audited.audit.granted_payload_bytes);
  EXPECT_GT(audited.audit.reservations, 0u);
  EXPECT_GT(audited.audit.timelines, 0u);
  EXPECT_GT(audited.audit.ftl_checks, 0u);
}

TEST(AuditedReplay, AllSeedConfigurationsAuditClean) {
  const Trace trace = small_ooc_trace();
  for (NvmType media :
       {NvmType::kTlc, NvmType::kMlc, NvmType::kSlc, NvmType::kPcm}) {
    for (const ExperimentConfig& config : all_configs(media)) {
      AuditSession session;
      const ExperimentResult result = run_experiment(config, trace);
      ASSERT_TRUE(result.audit.enabled);
      EXPECT_TRUE(result.audit.passed())
          << config.name << "/" << to_string(media) << "\n"
          << result.audit.summary();
    }
  }
}

TEST(AuditedReplay, FaultInjectionPathConservesWithRetryBucket) {
  const Trace trace = small_ooc_trace(32 * MiB, Bytes{});
  ExperimentConfig config = cnl_ufs_config(NvmType::kSlc);
  config.fault.enabled = true;
  config.fault.seed = 11;
  config.fault.rber = 8e-3;  // Ladder retries without uncorrectables.

  AuditSession session;
  const ExperimentResult result = run_experiment(config, trace);
  ASSERT_TRUE(result.audit.enabled);
  EXPECT_TRUE(result.audit.passed()) << result.audit.summary();
  EXPECT_GT(result.reliability.read_retries, 0u);
  // Re-senses are accounted in their own bucket, not in payload.
  EXPECT_GT(result.audit.media_retry_bytes, Bytes{});
  EXPECT_EQ(result.audit.requested_bytes, result.audit.granted_payload_bytes);
}

TEST(AuditedReplay, JsonCarriesAuditSectionOnlyWhenEnabled) {
  const Trace trace = small_ooc_trace();
  const ExperimentConfig config = cnl_ufs_config(NvmType::kTlc);

  const ExperimentResult plain = run_experiment(config, trace);
  EXPECT_EQ(plain.to_json().find("\"audit\""), std::string::npos);

  AuditSession session;
  const ExperimentResult audited = run_experiment(config, trace);
  const std::string json = audited.to_json();
  EXPECT_NE(json.find("\"audit\""), std::string::npos);
  EXPECT_NE(json.find("\"violation_count\":0"), std::string::npos);
}

// ---------- FTL mapping soundness -------------------------------------------

TEST(FtlMapping, SoundnessSweepCleanOnFreshDevice) {
  Ftl ftl(small_geometry(), tiny_timing());
  ftl.set_preloaded(4 * tiny_timing().page_size);
  EXPECT_TRUE(ftl.mapping_violations().empty());
}

TEST(FtlMapping, StaysInjectiveUnderRetireRemapWriteChurn) {
  const NvmTiming timing = tiny_timing();
  const SsdGeometry geometry = small_geometry();
  FtlConfig config;
  config.spare_blocks = 16;
  config.hard_failure_capacity_fraction = 0.9;
  Ftl ftl(geometry, timing, config);

  const std::uint64_t positions = geometry.plane_positions(timing);
  const std::uint64_t preload_units = positions * timing.pages_per_block;
  ftl.set_preloaded(preload_units * timing.page_size);

  // Hammer retire -> remap -> rewrite cycles: every round rewrites a
  // rotating window of logical pages, then retires the block now holding
  // one of them, forcing relocation + remap of live data. The mapping
  // must stay injective, in range, and bad-block-free throughout.
  std::uint64_t retire_cursor = 0;
  for (std::uint64_t round = 0; round < 48; ++round) {
    BlockRequest write;
    write.op = NvmOp::kWrite;
    write.offset = (round % (2 * preload_units)) * timing.page_size;
    write.size = timing.page_size;
    static_cast<void>(ftl.translate(write));

    if (round % 6 == 5) {
      // Alternate between retiring a remapped page's block and a live
      // identity block so both relocation paths churn.
      const std::uint64_t logical = retire_cursor % (2 * preload_units);
      retire_cursor += 7;
      std::vector<UnitRun> relocation;
      static_cast<void>(ftl.retire_block(ftl.lookup(logical), relocation));
    }

    const std::vector<std::string> violations = ftl.mapping_violations();
    EXPECT_TRUE(violations.empty())
        << "round " << round << ": " << violations.front();
    if (!violations.empty()) break;
  }
  EXPECT_GT(ftl.stats().retired_blocks, 0u);
  EXPECT_GT(ftl.stats().remap_relocated_pages, 0u);
  EXPECT_FALSE(ftl.failed());
}

TEST(FtlMapping, AuditedChurnReportsNoViolations) {
  AuditSession session;
  const NvmTiming timing = tiny_timing();
  FtlConfig config;
  config.spare_blocks = 16;
  config.hard_failure_capacity_fraction = 0.9;
  Ftl ftl(small_geometry(), timing, config);
  ftl.set_preloaded(8 * timing.page_size);

  for (std::uint64_t i = 0; i < 64; ++i) {
    BlockRequest write;
    write.op = NvmOp::kWrite;
    write.offset = (i % 16) * timing.page_size;
    write.size = timing.page_size;
    static_cast<void>(ftl.translate(write));
  }
  std::vector<UnitRun> relocation;
  static_cast<void>(ftl.retire_block(ftl.lookup(3), relocation));

  ftl.audit(session.auditor());
  EXPECT_EQ(session.auditor().violation_count(), 0u);
  EXPECT_GT(session.auditor().report().ftl_checks, 0u);
}

// Regression: GC must never erase a block that straddles the preload
// boundary while the pre-loaded identity pages in it are still live.
// Pre-fix, the victim scan only consulted valid_pages_ (which counts
// frontier writes, not identity pages), erased the boundary block, and
// later frontier reuse of those units aliased live identity data — the
// mapping audit reports that as an identity-alias violation.
TEST(FtlMapping, GcSparesTheBoundaryBlockHoldingLiveIdentityPages) {
  const NvmTiming timing = tiny_timing();
  const SsdGeometry geometry = small_geometry();
  Ftl ftl(geometry, timing, {});

  const std::uint64_t positions = geometry.plane_positions(timing);
  const std::uint64_t cohort_units = positions * timing.pages_per_block;
  // Preload ends mid-block: the boundary block cohort holds live
  // identity pages below the frontier start.
  const std::uint64_t preload_units = cohort_units + cohort_units / 2;
  ftl.set_preloaded(preload_units * timing.page_size);

  // Rewrite a small window far above the preload over and over. The
  // frontier fills the tail of the boundary cohort first, those pages
  // are then invalidated by the rewrites, and with default reserve the
  // GC repeatedly hunts for the emptiest block — pre-fix it would pick
  // the boundary block once its frontier-written tail went dead.
  for (std::uint64_t i = 0; i < 8 * cohort_units; ++i) {
    BlockRequest write;
    write.op = NvmOp::kWrite;
    write.offset = (2 * preload_units + (i % positions)) * timing.page_size;
    write.size = timing.page_size;
    static_cast<void>(ftl.translate(write));
  }
  EXPECT_GT(ftl.stats().gc_runs, 0u);

  // Every never-rewritten preloaded page still translates identity, and
  // the mapping sweep finds no override aliased onto identity units.
  for (std::uint64_t logical = 0; logical < preload_units; ++logical) {
    ASSERT_EQ(ftl.lookup(logical), logical) << "identity page lost";
  }
  const std::vector<std::string> violations = ftl.mapping_violations();
  EXPECT_TRUE(violations.empty()) << violations.front();
}

}  // namespace
}  // namespace nvmooc
