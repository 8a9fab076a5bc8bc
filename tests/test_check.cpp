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
#include "cluster/instruments.hpp"
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

// The checker is driven the way the engine drives it: an AuditSession
// installs the auditor, and the probe emitters carry each event.

probe::RequestOpen open_at(Time ready, Time admit, Time issue) {
  probe::RequestOpen open;
  open.ready = ready;
  open.admit = admit;
  open.issue = issue;
  return open;
}

probe::RequestClose close_at(Time media_begin, Time media_end, Time completion) {
  probe::RequestClose close;
  close.ledger.media_begin = media_begin;
  close.ledger.media_end = media_end;
  close.ledger.completion = completion;
  return close;
}

void posix(Bytes size, Bytes payload, Bytes internal = Bytes{}) {
  probe::posix({size, payload, internal, 1, 0, "fs"});
}

// ---------- causality: the checker against bad event sequences -------------

TEST(AuditorCausality, CleanLifecyclePasses) {
  AuditSession session;
  probe::request_open(open_at(Time{10}, Time{20}, Time{20}));
  probe::request_close(close_at(Time{30}, Time{40}, Time{50}));
  const AuditReport report = session.auditor().report();
  EXPECT_TRUE(report.passed()) << report.summary();
  EXPECT_EQ(report.requests_tracked, 1u);
  EXPECT_EQ(report.requests_completed, 1u);
}

TEST(AuditorCausality, DoubleCompletionIsViolation) {
  AuditSession session;
  probe::request_open(open_at(Time{10}, Time{20}, Time{20}));
  probe::request_close(close_at(Time{30}, Time{40}, Time{50}));
  probe::request_close(close_at(Time{30}, Time{40}, Time{60}));
  const AuditReport report = session.auditor().report();
  EXPECT_FALSE(report.passed());
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].invariant, "causality");
  EXPECT_NE(report.violations[0].detail.find("closed with no request open"), std::string::npos);
  EXPECT_EQ(report.requests_completed, 1u);  // Counted once regardless.
}

TEST(AuditorCausality, TimeGoingBackwardsIsViolation) {
  AuditSession session;
  probe::request_open(open_at(Time{100}, Time{50}, Time{50}));  // Admission precedes ready.
  EXPECT_EQ(session.auditor().violation_count(), 1u);
  // Each later stage is checked against the one before it.
  probe::request_close(close_at(Time{40}, Time{30}, Time{20}));
  EXPECT_EQ(session.auditor().violation_count(), 4u);  // Media, its end, completion.
}

TEST(AuditorCausality, OpenWhileOpenIsViolation) {
  AuditSession session;
  probe::request_open(open_at(Time{10}, Time{20}, Time{20}));
  probe::request_open(open_at(Time{30}, Time{30}, Time{30}));
  ASSERT_EQ(session.auditor().violation_count(), 1u);
  const AuditReport report = session.auditor().report();
  EXPECT_NE(report.violations[0].detail.find("request 1 opened while request 0 is still open"),
            std::string::npos);
}

TEST(AuditorCausality, CloseWithoutOpenIsViolation) {
  AuditSession session;
  probe::request_close(close_at(Time{20}, Time{30}, Time{40}));
  EXPECT_EQ(session.auditor().violation_count(), 1u);
  EXPECT_EQ(session.auditor().report().requests_completed, 0u);
}

TEST(AuditorCausality, IncompleteRequestReportedAtReplayEnd) {
  AuditSession session;
  probe::request_open(open_at(Time{10}, Time{20}, Time{20}));
  const AuditReport report = session.auditor().report();
  EXPECT_FALSE(report.passed());
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_NE(report.violations[0].detail.find("never completed"), std::string::npos);
}

TEST(AuditorCausality, ReportIsPure) {
  AuditSession session;
  probe::request_open(open_at(Time{10}, Time{10}, Time{10}));  // Left incomplete.
  const AuditReport first = session.auditor().report();
  const AuditReport second = session.auditor().report();
  EXPECT_EQ(first.violation_count, 1u);
  EXPECT_EQ(second.violation_count, 1u);  // Not appended twice.
  EXPECT_EQ(session.auditor().violation_count(), 0u);  // Live state untouched.
}

// ---------- conservation ----------------------------------------------------

TEST(AuditorConservation, GrantMismatchIsViolation) {
  AuditSession session;
  posix(Bytes{4096}, Bytes{4000}, Bytes{512});
  EXPECT_EQ(session.auditor().violation_count(), 1u);
  const AuditReport report = session.auditor().report();
  EXPECT_EQ(report.granted_payload_bytes, Bytes{4000});
  EXPECT_EQ(report.granted_internal_bytes, Bytes{512});
}

TEST(AuditorConservation, AggregateLeakCaughtAtReplayEnd) {
  AuditSession session;
  posix(Bytes{4096}, Bytes{4096});
  posix(Bytes{4096}, Bytes{4000});
  // The per-request check fires once; the end-of-replay sweep adds the
  // aggregate leak.
  EXPECT_EQ(session.auditor().violation_count(), 1u);
  const AuditReport report = session.auditor().report();
  ASSERT_EQ(report.violations.size(), 2u);
  EXPECT_NE(report.violations[1].detail.find("byte leak"), std::string::npos);
}

TEST(AuditorConservation, AbortedReplaySkipsAggregateEquality) {
  AuditSession session;
  posix(Bytes{4096}, Bytes{4000});  // The per-request check still fires.
  session.auditor().replay_aborted();
  const AuditReport report = session.auditor().report();
  EXPECT_TRUE(report.aborted);
  EXPECT_EQ(report.violation_count, 1u) << report.summary();  // No aggregate leak.
}

TEST(AuditorConservation, MediaShortfallIsViolation) {
  AuditSession session;
  probe::media_begin(Bytes{8192}, /*internal=*/false);
  probe::media_transfer(Bytes{4096}, MediaKind::kRequest, 0);
  probe::media_end({});
  EXPECT_EQ(session.auditor().violation_count(), 1u);
  const AuditReport report = session.auditor().report();
  EXPECT_NE(report.violations[0].detail.find("mismatch"), std::string::npos);
}

TEST(AuditorConservation, SideTrafficBucketsDoNotCountTowardTheRequest) {
  AuditSession session;
  probe::media_begin(Bytes{8192}, /*internal=*/false);
  probe::media_transfer(Bytes{4096}, MediaKind::kRequest, 0);
  probe::media_transfer(Bytes{2048}, MediaKind::kRmw, 0);    // RMW pre-read.
  probe::media_transfer(Bytes{16384}, MediaKind::kGc, 0);    // GC relocation.
  probe::media_transfer(Bytes{4096}, MediaKind::kRequest, 3);  // 3 ECC retries.
  probe::media_end({});
  const AuditReport report = session.auditor().report();
  EXPECT_TRUE(report.passed()) << report.summary();
  EXPECT_EQ(report.media_payload_bytes, Bytes{8192});
  EXPECT_EQ(report.media_rmw_bytes, Bytes{2048});
  EXPECT_EQ(report.media_internal_bytes, Bytes{16384});
  EXPECT_EQ(report.media_retry_bytes, Bytes{3 * 4096});
}

TEST(AuditorConservation, ReplayEndingMidRequestIsViolation) {
  AuditSession session;
  probe::media_begin(Bytes{8192}, false);
  const AuditReport report = session.auditor().report();
  EXPECT_FALSE(report.passed());
  EXPECT_NE(report.violations[0].detail.find("mid device request"),
            std::string::npos);
}

// ---------- occupancy -------------------------------------------------------

TEST(AuditorOccupancy, OverlapDetectedTouchingIsNot) {
  AuditSession session;
  const probe::Site site{0, 0, 0, 0};
  probe::step(probe::Resource::kChannel, site, Time{0}, Time{0}, Time{100});
  probe::step(probe::Resource::kChannel, site, Time{100}, Time{100}, Time{200});  // Touching.
  EXPECT_EQ(session.auditor().violation_count(), 0u);
  probe::step(probe::Resource::kChannel, site, Time{150}, Time{150}, Time{250});  // Overlaps.
  EXPECT_EQ(session.auditor().violation_count(), 1u);
  const std::string host = "link.host";
  probe::link(host, Time{0}, Time{10}, Time{10}, Time{100});
  probe::link(host, Time{0}, Time{10}, Time{90}, Time{120});  // Overlaps.
  EXPECT_EQ(session.auditor().violation_count(), 2u);
  const AuditReport report = session.auditor().report();
  EXPECT_EQ(report.timelines, 2u);
  EXPECT_EQ(report.reservations, 5u);
  ASSERT_EQ(report.violations.size(), 2u);
  EXPECT_NE(report.violations[0].detail.find("double booking"), std::string::npos);
  EXPECT_NE(report.violations[0].detail.find("ch0"), std::string::npos);
  EXPECT_NE(report.violations[1].detail.find("link.host"), std::string::npos);
}

TEST(AuditorOccupancy, DistinctResourcesAreIndependent) {
  AuditSession session;
  // Two channels, two ports of one channel, two planes of one die and two
  // links: eight resources, each busy over [50, 150).
  const auto busy = [](probe::Resource resource, probe::Site site) {
    probe::step(resource, site, Time{50}, Time{50}, Time{150});
  };
  busy(probe::Resource::kChannel, {0, 0, 0, 0});
  busy(probe::Resource::kChannel, {1, 0, 0, 0});
  busy(probe::Resource::kPort, {0, 0, 0, 0});
  busy(probe::Resource::kPort, {0, 1, 0, 0});
  busy(probe::Resource::kCell, {0, 0, 0, 0});
  busy(probe::Resource::kCell, {0, 0, 0, 1});
  const std::string host = "link.host";
  const std::string net = "link.net";
  probe::link(host, Time{50}, Time{50}, Time{50}, Time{150});
  probe::link(net, Time{50}, Time{50}, Time{50}, Time{150});
  EXPECT_EQ(session.auditor().violation_count(), 0u);
  EXPECT_EQ(session.auditor().report().timelines, 8u);
  // The one name of each device resource, which the auditor's violations
  // and the tracer's tracks both use.
  EXPECT_EQ(probe::resource_name(probe::Resource::kChannel, {1, 0, 0, 0}), "ssd.ch1");
  EXPECT_EQ(probe::resource_name(probe::Resource::kChannelStall, {1, 2, 3, 4}), "ssd.ch1");
  EXPECT_EQ(probe::resource_name(probe::Resource::kPort, {0, 1, 0, 0}), "ssd.ch0.pkg1.port");
  EXPECT_EQ(probe::resource_name(probe::Resource::kCell, {2, 1, 3, 1}),
            "ssd.ch2.pkg1.die3.pl1");
}

// A channel bus is one resource for every package, die and plane behind
// it, and a port one for every die of its package.
TEST(AuditorOccupancy, StepsShareTheirChannelAndPort) {
  AuditSession session;
  probe::step(probe::Resource::kChannel, {2, 0, 0, 0}, Time{0}, Time{0}, Time{100});
  probe::step(probe::Resource::kChannel, {2, 3, 1, 1}, Time{50}, Time{50}, Time{150});
  EXPECT_EQ(session.auditor().violation_count(), 1u);
  probe::step(probe::Resource::kPort, {2, 3, 0, 0}, Time{0}, Time{0}, Time{100});
  probe::step(probe::Resource::kPort, {2, 3, 1, 1}, Time{50}, Time{50}, Time{150});
  EXPECT_EQ(session.auditor().violation_count(), 2u);
  const AuditReport report = session.auditor().report();
  EXPECT_EQ(report.timelines, 2u);
  ASSERT_EQ(report.violations.size(), 2u);
  EXPECT_NE(report.violations[1].detail.find("ssd.ch2.pkg3.port"), std::string::npos);
}

// Each replay runs on a device of its own, from time zero: replays one
// after another under one session are audited as if each had its own,
// and the counts add up. The first replay issues its last request late
// (tens of ms), so a watermark carried into the second would flag its
// early grants.
TEST(AuditorOccupancy, SuccessiveReplaysAuditAsSeparateDevices) {
  const Trace trace = small_ooc_trace();
  const ExperimentConfig first = ion_gpfs_config(NvmType::kSlc);
  const ExperimentConfig second = cnl_ufs_config(NvmType::kTlc);
  const auto audit_alone = [&trace](const ExperimentConfig& config) {
    AuditSession session;
    return ReplayEngine(config).run(trace).audit;
  };
  const AuditReport alone_first = audit_alone(first);
  const AuditReport alone_second = audit_alone(second);
  ASSERT_TRUE(alone_first.passed()) << alone_first.summary();
  ASSERT_TRUE(alone_second.passed()) << alone_second.summary();

  AuditSession session;
  ReplayEngine(first).run(trace);
  const AuditReport both = ReplayEngine(second).run(trace).audit;
  EXPECT_TRUE(both.passed()) << both.summary();
  EXPECT_EQ(both.timelines, alone_first.timelines + alone_second.timelines);
  EXPECT_EQ(both.reservations, alone_first.reservations + alone_second.reservations);
}

// The device folds its timelines behind the latest issue time, so a grant
// ready before it would reach into history that is gone. A link is ready
// once its fixed latencies have passed.
TEST(AuditorCausality, GrantBeforeIssueWatermarkIsViolation) {
  AuditSession session;
  const probe::Site site{3, 0, 0, 0};
  probe::RequestOpen open = open_at(Time{100}, Time{100}, Time{500});
  open.watermark = Time{500};
  probe::request_open(open);
  // At the watermark: fine.
  probe::step(probe::Resource::kChannel, site, Time{500}, Time{600}, Time{700});
  const std::string host = "link.host";
  probe::link(host, Time{400}, Time{500}, Time{500}, Time{600});
  EXPECT_EQ(session.auditor().violation_count(), 0u);
  probe::step(probe::Resource::kChannel, site, Time{499}, Time{700}, Time{800});
  EXPECT_EQ(session.auditor().violation_count(), 1u);
  const AuditReport report = session.auditor().report();
  ASSERT_FALSE(report.violations.empty());
  EXPECT_EQ(report.violations[0].invariant, "causality");
  EXPECT_NE(report.violations[0].detail.find("before the issue watermark 500ps"),
            std::string::npos);
  EXPECT_NE(report.violations[0].detail.find("ch3"), std::string::npos);
}

// Grants that end by the watermark are pruned; a grant that respects the
// watermark still meets every interval it could overlap.
TEST(AuditorOccupancy, PruningBehindWatermarkKeepsOverlapCheck) {
  AuditSession session;
  const probe::Site plane{0, 1, 1, 0};
  probe::step(probe::Resource::kCell, plane, Time{0}, Time{0}, Time{100});
  probe::step(probe::Resource::kCell, plane, Time{0}, Time{300}, Time{600});
  probe::RequestOpen open = open_at(Time{}, Time{}, Time{200});
  open.watermark = Time{200};
  probe::request_open(open);
  probe::step(probe::Resource::kCell, plane, Time{200}, Time{200}, Time{300});  // Touching.
  EXPECT_EQ(session.auditor().violation_count(), 0u);
  probe::step(probe::Resource::kCell, plane, Time{200}, Time{550}, Time{650});  // Overlaps.
  EXPECT_EQ(session.auditor().violation_count(), 1u);
  EXPECT_EQ(session.auditor().report().timelines, 1u);
}

// Zero-width steps and transfers, channel stalls and the RPC window
// occupy nothing.
TEST(AuditorOccupancy, ZeroWidthGrantsAreIgnored) {
  AuditSession session;
  probe::step(probe::Resource::kChannel, {}, Time{100}, Time{100}, Time{100});
  probe::step(probe::Resource::kChannelStall, {}, Time{100}, Time{300}, Time{300});
  probe::rpc(Time{100}, Time{300});
  const std::string host = "link.host";
  probe::link(host, Time{100}, Time{200}, Time{200}, Time{200});
  const AuditReport report = session.auditor().report();
  EXPECT_EQ(report.reservations, 0u);
  EXPECT_EQ(report.timelines, 0u);
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

// GC under a real replay: on a one-die MLC device whose dataset ends 8 MiB
// short of capacity, a rewrite-heavy trace pushes the write frontier into
// the GC reserve, so the engine's own FTL collects garbage (relocations
// included) while the auditor watches every mapping. The makespan and
// every FtlStats field are pinned: the FTL's tables may change how they
// store the mapping, never what it is.
TEST(FtlMapping, ReplayOnOneDieCollectsGarbageAuditClean) {
  ExperimentConfig config = cnl_ufs_config(NvmType::kMlc);
  config.geometry.channels = 1;
  config.geometry.packages_per_channel = 1;
  config.geometry.dies_per_package = 1;
  const Bytes capacity = config.geometry.capacity(mlc_timing());
  const Bytes extent = capacity - 8 * MiB;

  // One read at the end fixes the extent (the engine preloads it); then
  // a 4 MiB hot region is rewritten in 64 KiB pieces in a scattered
  // order, so GC victims still hold live pages, with a read-back of the
  // region every 50 writes. Much more rewriting exhausts the frontier,
  // after which GC can reclaim only blocks with no live page left.
  Trace trace;
  trace.add(NvmOp::kRead, extent - 4 * KiB, 4 * KiB);
  std::uint64_t lcg = 1;
  for (std::uint64_t i = 0; i < 200; ++i) {
    lcg = (lcg * 1103515245 + 12345) % (std::uint64_t{1} << 31);
    trace.add(NvmOp::kWrite, ((lcg >> 16) % 64) * (64 * KiB), 64 * KiB);
    if (i % 50 == 49) trace.add(NvmOp::kRead, Bytes{}, 4 * MiB);
  }

  obs::CliOptions options;
  options.audit = true;
  options.flight = false;
  InstrumentSet instruments(options);
  ReplayEngine engine(config);
  const ExperimentResult result = engine.run(trace);
  const AuditReport audit = instruments.conclude();

  EXPECT_EQ(audit.violation_count, 0u) << audit.summary();
  EXPECT_GT(audit.ftl_checks, 0u);
  EXPECT_GT(result.ftl.gc_runs, 0u);
  EXPECT_GT(result.ftl.gc_relocated_pages, 0u);

  // Pinned to the values of the std::map FTL this table layout replaced.
  EXPECT_EQ(result.makespan.ps(), 2587193540527);
  EXPECT_EQ(result.ftl.reads, 5u);
  EXPECT_EQ(result.ftl.writes, 200u);
  EXPECT_EQ(result.ftl.read_modify_writes, 0u);
  EXPECT_EQ(result.ftl.gc_runs, 13u);
  EXPECT_EQ(result.ftl.gc_relocated_pages, 336u);
  EXPECT_EQ(result.ftl.gc_erased_blocks, 13u);
  EXPECT_EQ(result.ftl.retired_blocks, 0u);
  EXPECT_EQ(result.ftl.remap_relocated_pages, 0u);
  EXPECT_EQ(result.ftl.spare_blocks_used, 0u);

  // The only replay here that erases: the device's wear sees every GC
  // erase, on 11 blocks, two of them twice, and every page programmed
  // (200 x 16 written plus 336 relocated).
  EXPECT_EQ(result.wear.total_erases, result.ftl.gc_erased_blocks);
  EXPECT_EQ(result.wear.touched_units, 11u);
  EXPECT_EQ(result.wear.max_unit_erases, 2u);
  EXPECT_EQ(result.wear.total_writes, 3536u);
  EXPECT_DOUBLE_EQ(result.wear.imbalance, 2.0 / (13.0 / 11.0));
}

}  // namespace
}  // namespace nvmooc
