// Unit + property tests for the SSD layer: geometry mapping, FTL
// translation/allocation/GC, controller scheduling, PAL classification,
// and device statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <new>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/configs.hpp"
#include "cluster/engine.hpp"
#include "common/probe.hpp"
#include "fs/presets.hpp"
#include "obs/json.hpp"
#include "ooc/workload.hpp"
#include "ssd/controller.hpp"
#include "ssd/ftl.hpp"
#include "ssd/ftl_tables.hpp"
#include "ssd/geometry.hpp"
#include "ssd/ssd.hpp"
#include "map_ftl.hpp"

namespace nvmooc {
namespace {
// Heap allocations made on this thread, counted by the replacement of the
// global operator new below.
thread_local std::uint64_t heap_allocations = 0;
}  // namespace
}  // namespace nvmooc

// The replacement pair is malloc/free by design; GCC cannot tell once it
// inlines them, so its mismatch warning is off for these definitions.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ++nvmooc::heap_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace nvmooc {
namespace {

SsdGeometry small_geometry() {
  SsdGeometry g;
  g.channels = 2;
  g.packages_per_channel = 2;
  g.dies_per_package = 2;
  return g;
}

NvmTiming tiny_timing() {
  // Miniature SLC-like media so FTL capacity edges are reachable.
  NvmTiming t = slc_timing();
  t.blocks_per_plane = 4;
  t.pages_per_block = 8;
  return t;
}

// ---------- geometry -------------------------------------------------------

TEST(Geometry, PaperGeometryMatchesSection41) {
  const SsdGeometry g = paper_geometry();
  EXPECT_EQ(g.channels, 8u);
  EXPECT_EQ(g.total_packages(), 64u);  // "64 NVM packages"
  EXPECT_EQ(g.total_dies(), 128u);     // "a total of 128 NVM dies"
}

class GeometryPolicyTest : public ::testing::TestWithParam<AllocationPolicy> {};

TEST_P(GeometryPolicyTest, MappingIsBijective) {
  SsdGeometry g = small_geometry();
  g.policy = GetParam();
  const NvmTiming timing = tiny_timing();
  const std::uint64_t units = g.capacity(timing) / timing.page_size;
  std::set<std::tuple<unsigned, unsigned, unsigned, unsigned, std::uint64_t, unsigned>> seen;
  for (std::uint64_t u = 0; u < units; ++u) {
    const PhysicalAddress a = g.map_unit(u, timing);
    EXPECT_LT(a.channel, g.channels);
    EXPECT_LT(a.package, g.packages_per_channel);
    EXPECT_LT(a.die, g.dies_per_package);
    EXPECT_LT(a.plane, timing.planes_per_die);
    EXPECT_LT(a.block, timing.blocks_per_plane);
    EXPECT_LT(a.page, timing.pages_per_block);
    EXPECT_TRUE(seen.insert({a.channel, a.package, a.die, a.plane, a.block, a.page}).second)
        << "collision at unit " << u;
    EXPECT_EQ(g.unit_of(a, timing), u);  // Exact inverse.
  }
  EXPECT_EQ(seen.size(), units);
}

// Differential: the incremental stripe walk lands where map_unit does,
// the FTL's block index straight from a unit equals the index of
// map_unit's address (block_base inverting it), and that block lies on
// the address's plane_index, in range, for every unit through
// two full block wraps, on the paper geometry and on odd ones where no
// dimension is a power of two.
TEST_P(GeometryPolicyTest, WalkMatchesMapUnit) {
  SsdGeometry odd;
  odd.channels = 3;
  odd.packages_per_channel = 5;
  odd.dies_per_package = 3;
  NvmTiming odd_pages = tiny_timing();
  odd_pages.pages_per_block = 3;
  NvmTiming four_planes = tiny_timing();
  four_planes.planes_per_die = 4;
  const std::vector<std::pair<SsdGeometry, NvmTiming>> cases = {
      {paper_geometry(), slc_timing()}, {paper_geometry(), pcm_timing()},
      {odd, tiny_timing()},             {odd, odd_pages},
      {odd, four_planes}};
  const auto as_tuple = [](const PhysicalAddress& a) {
    return std::make_tuple(a.channel, a.package, a.die, a.plane, a.block, a.page);
  };
  for (auto [g, timing] : cases) {
    g.policy = GetParam();
    SCOPED_TRACE(::testing::Message() << g.channels << "x" << g.packages_per_channel << "x"
                                      << g.dies_per_package << "x" << timing.planes_per_die
                                      << ", " << timing.pages_per_block << " pages/block");
    const std::uint64_t wraps = 2 * g.plane_positions(timing) * timing.pages_per_block;
    PhysicalAddress walked = g.map_unit(0, timing);
    for (std::uint64_t u = 0; u <= wraps; ++u) {
      const PhysicalAddress mapped = g.map_unit(u, timing);
      const std::uint64_t block = g.block_index(mapped, timing);
      ASSERT_EQ(g.block_index_of_unit(u, timing), block) << "unit " << u;
      const std::uint32_t plane = g.plane_index(mapped, timing);
      ASSERT_EQ(plane, g.block_index_of_unit(u, timing) / timing.blocks_per_plane)
          << "unit " << u;
      ASSERT_LT(plane, g.plane_positions(timing)) << "unit " << u;
      PhysicalAddress base = mapped;
      base.page = 0;
      ASSERT_EQ(as_tuple(g.block_base(block, timing)), as_tuple(base)) << "unit " << u;
      g.next(walked, timing);
      ASSERT_EQ(as_tuple(walked), as_tuple(g.map_unit(u + 1, timing))) << "after unit " << u;
    }
    EXPECT_EQ(walked.block, 2u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, GeometryPolicyTest,
                         ::testing::Values(AllocationPolicy::kChannelPlaneDie,
                                           AllocationPolicy::kChannelDiePlane,
                                           AllocationPolicy::kDieChannelPlane));

TEST(Geometry, ChannelFirstStriping) {
  const SsdGeometry g = paper_geometry();  // channel-plane-die order.
  const NvmTiming timing = slc_timing();
  for (std::uint64_t u = 0; u < 16; ++u) {
    EXPECT_EQ(g.map_unit(u, timing).channel, u % 8);
  }
  // Units 0..7 on plane 0, 8..15 on plane 1, same die.
  EXPECT_EQ(g.map_unit(0, timing).plane, 0u);
  EXPECT_EQ(g.map_unit(8, timing).plane, 1u);
  EXPECT_EQ(g.map_unit(0, timing).package, g.map_unit(8, timing).package);
}

// ---------- FTL ------------------------------------------------------------

TEST(Ftl, ReadOfPreloadedDataIsIdentityAndSingleRun) {
  Ftl ftl(paper_geometry(), slc_timing());
  ftl.set_preloaded(GiB);
  BlockRequest request{NvmOp::kRead, Bytes{}, MiB, false, false};
  const auto runs = ftl.translate(request);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].first_unit, 0u);
  EXPECT_EQ(runs[0].count, MiB / (2 * KiB));
  EXPECT_EQ(runs[0].bytes, MiB);
}

TEST(Ftl, UnalignedReadTrimsEdges) {
  Ftl ftl(paper_geometry(), slc_timing());
  ftl.set_preloaded(GiB);
  // 3 KiB starting at 1 KiB: touches pages 0 and 1, payload 3 KiB.
  BlockRequest request{NvmOp::kRead, 1 * KiB, 3 * KiB, false, false};
  const auto runs = ftl.translate(request);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].count, 2u);
  EXPECT_EQ(runs[0].bytes, 3 * KiB);
}

TEST(Ftl, WriteAllocatesBeyondPreload) {
  Ftl ftl(paper_geometry(), slc_timing());
  ftl.set_preloaded(MiB);
  BlockRequest write{NvmOp::kWrite, Bytes{}, 2 * KiB, false, false};
  const auto runs = ftl.translate(write);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].op, NvmOp::kWrite);
  EXPECT_GE(runs[0].first_unit, MiB / (2 * KiB));  // Frontier above preload.
  // The mapping now redirects reads of page 0.
  EXPECT_EQ(ftl.lookup(0), runs[0].first_unit);
}

TEST(Ftl, RewriteInvalidatesOldMapping) {
  Ftl ftl(paper_geometry(), slc_timing());
  ftl.set_preloaded(MiB);
  BlockRequest write{NvmOp::kWrite, Bytes{}, 2 * KiB, false, false};
  const auto first = ftl.translate(write);
  const auto second = ftl.translate(write);
  EXPECT_NE(first[0].first_unit, second[0].first_unit);
  EXPECT_EQ(ftl.lookup(0), second[0].first_unit);
}

TEST(Ftl, PartialPageWriteDoesReadModifyWrite) {
  Ftl ftl(paper_geometry(), slc_timing());
  ftl.set_preloaded(MiB);
  BlockRequest partial{NvmOp::kWrite, Bytes{512}, 1 * KiB, false, false};  // Inside page 0.
  const auto runs = ftl.translate(partial);
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].op, NvmOp::kRead);  // Fetch old page first.
  EXPECT_EQ(runs[1].op, NvmOp::kWrite);
  EXPECT_EQ(ftl.stats().read_modify_writes, 1u);
}

TEST(Ftl, PartialWriteToVirginSpaceSkipsRmw) {
  Ftl ftl(paper_geometry(), slc_timing());
  // No preload: nothing to read back.
  BlockRequest partial{NvmOp::kWrite, Bytes{512}, Bytes{512}, false, false};
  const auto runs = ftl.translate(partial);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].op, NvmOp::kWrite);
  EXPECT_EQ(ftl.stats().read_modify_writes, 0u);
}

TEST(Ftl, SequentialWritesFormSingleRun) {
  Ftl ftl(paper_geometry(), slc_timing());
  BlockRequest write{NvmOp::kWrite, Bytes{}, 64 * KiB, false, false};
  const auto runs = ftl.translate(write);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].count, 32u);
}

TEST(Ftl, ReadAfterScatteredRewritesSplitsRuns) {
  Ftl ftl(paper_geometry(), slc_timing());
  ftl.set_preloaded(MiB);
  // Rewrite pages 2 and 3 (they allocate consecutively -> merged run),
  // leave 0,1,4,5 in place.
  ftl.translate({NvmOp::kWrite, 2 * 2 * KiB, 4 * KiB, false, false});
  const auto runs = ftl.translate({NvmOp::kRead, Bytes{}, 12 * KiB, false, false});
  // Expect: identity [0,2), override [2,4), identity [4,6).
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].count, 2u);
  EXPECT_EQ(runs[1].count, 2u);
  EXPECT_GE(runs[1].first_unit, MiB / (2 * KiB));
  EXPECT_EQ(runs[2].count, 2u);
  Bytes total;
  for (const auto& run : runs) total += run.bytes;
  EXPECT_EQ(total, 12 * KiB);
}

TEST(Ftl, GarbageCollectionReclaimsSpace) {
  Ftl ftl(small_geometry(), tiny_timing(), FtlConfig{1});
  // Capacity: 16 plane positions x 4 blocks x 8 pages = 512 units.
  // Hammer one logical page; GC must kick in and the device must keep
  // accepting writes.
  for (int i = 0; i < 2000; ++i) {
    ASSERT_NO_THROW(ftl.translate({NvmOp::kWrite, Bytes{}, 2 * KiB, false, false}));
  }
  EXPECT_GT(ftl.stats().gc_runs, 0u);
  EXPECT_GT(ftl.stats().gc_erased_blocks, 0u);
}

TEST(Ftl, GcEmitsEraseTraffic) {
  Ftl ftl(small_geometry(), tiny_timing(), FtlConfig{1});
  bool saw_erase = false;
  for (int i = 0; i < 2000 && !saw_erase; ++i) {
    for (const UnitRun& run : ftl.translate({NvmOp::kWrite, Bytes{}, 2 * KiB, false, false})) {
      if (run.op == NvmOp::kErase) {
        saw_erase = true;
        EXPECT_TRUE(run.gc);
      }
    }
  }
  EXPECT_TRUE(saw_erase);
}

TEST(Ftl, WearAwareGcLevelsEraseCounts) {
  FtlConfig plain_config;
  plain_config.gc_reserve_blocks = 1;
  plain_config.wear_aware = false;
  FtlConfig aware_config = plain_config;
  aware_config.wear_aware = true;

  auto hammer = [](Ftl& ftl) {
    // Skewed rewrite workload: one hot page plus a sweep of colder ones.
    for (int round = 0; round < 3000; ++round) {
      ftl.translate({NvmOp::kWrite, Bytes{}, 2 * KiB, false, false});
      if (round % 4 == 0) {
        const Bytes cold = 2 * KiB * (1 + (round / 4) % 64);
        ftl.translate({NvmOp::kWrite, cold, 2 * KiB, false, false});
      }
    }
  };

  Ftl plain(small_geometry(), tiny_timing(), plain_config);
  Ftl aware(small_geometry(), tiny_timing(), aware_config);
  hammer(plain);
  hammer(aware);
  ASSERT_GT(plain.stats().gc_erased_blocks, 10u);
  ASSERT_GT(aware.stats().gc_erased_blocks, 10u);
  // Wear-aware allocation must not distribute erases *worse* than naive
  // FIFO reuse on the same workload.
  EXPECT_LE(aware.wear_spread(), plain.wear_spread() * 1.05);
}

TEST(Ftl, ZeroSizeRequestIsEmpty) {
  Ftl ftl(paper_geometry(), slc_timing());
  EXPECT_TRUE(ftl.translate({NvmOp::kRead, Bytes{}, Bytes{}, false, false}).empty());
}

TEST(Ftl, BuildingAllocatesNothingAndRewritesAllocatePerLeaf) {
  const std::uint64_t before = heap_allocations;
  Ftl ftl(paper_geometry(), mlc_timing());
  ftl.set_preloaded(64 * MiB);
  EXPECT_EQ(heap_allocations, before);

  // 1,024 pages a pass. The first two passes build the tables; after
  // that each pass allocates translate()'s result and the odd leaf for
  // the frontier's new units. The std::map tables allocated a node per
  // rewritten page: 1,024 a pass.
  const BlockRequest rewrite{NvmOp::kWrite, Bytes{}, 4 * MiB, false, false};
  static_cast<void>(ftl.translate(rewrite));
  static_cast<void>(ftl.translate(rewrite));
  const std::uint64_t steady = heap_allocations;
  for (int pass = 0; pass < 8; ++pass) static_cast<void>(ftl.translate(rewrite));
  EXPECT_LE(heap_allocations - steady, 8u * 4);
  EXPECT_EQ(ftl.stats().writes, 10u);
}

// ---------- FTL tables against std::map --------------------------------------

// Seeded get/set/erase/lower_bound mixes over dense runs and scattered
// keys, checked against std::map after every operation.
TEST(PageTable, MatchesStdMap) {
  std::mt19937_64 rng(7);
  PageTable table;
  std::map<std::uint64_t, std::uint64_t> model;
  for (int step = 0; step < 200000; ++step) {
    const std::uint64_t base = rng() % 4 == 0 ? (rng() % 64) << 20 : 0;
    const std::uint64_t key = base + rng() % 3000;
    switch (rng() % 4) {
      case 0:
      case 1: {
        const std::uint64_t value = rng() % 100000;
        table.set(key, value);
        model[key] = value;
        break;
      }
      case 2: {
        const auto it = model.find(key);
        ASSERT_EQ(table.erase(key), it == model.end() ? PageTable::kAbsent : it->second);
        if (it != model.end()) model.erase(it);
        break;
      }
      default: {
        const auto it = model.lower_bound(key);
        const auto [k, v] = table.lower_bound(key);
        if (it == model.end()) {
          ASSERT_EQ(k, PageTable::kAbsent) << key;
        } else {
          ASSERT_EQ(k, it->first) << key;
          ASSERT_EQ(v, it->second) << key;
        }
        break;
      }
    }
    const auto it = model.find(key);
    ASSERT_EQ(table.get(key), it == model.end() ? PageTable::kAbsent : it->second);
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> walked;
  table.for_each([&](std::uint64_t k, std::uint64_t v) { walked.emplace_back(k, v); });
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> in_order(model.begin(), model.end());
  EXPECT_EQ(walked, in_order);
  for (const auto& [k, v] : std::map<std::uint64_t, std::uint64_t>(model)) {
    EXPECT_EQ(table.erase(k), v);
  }
  EXPECT_EQ(table.lower_bound(0).first, PageTable::kAbsent);
}

TEST(BlockCounts, MatchesStdMap) {
  std::mt19937_64 rng(11);
  BlockCounts counts;
  std::map<std::uint64_t, std::uint32_t> model;
  EXPECT_TRUE(counts.empty());
  for (int step = 0; step < 200000; ++step) {
    // Keys stride like block keys do (position * blocks_per_plane + block).
    const std::uint64_t key = (rng() % 300) * 8192 + rng() % 8;
    switch (rng() % 3) {
      case 0:
        ++counts[key];
        ++model[key];
        break;
      case 1:
        if (std::uint32_t* count = counts.find(key)) {
          ASSERT_TRUE(model.count(key));
          if (*count > 0) --*count;
          if (model[key] > 0) --model[key];
        } else {
          ASSERT_FALSE(model.count(key));
        }
        break;
      default:
        counts.erase(key);
        model.erase(key);
        break;
    }
    ASSERT_EQ(counts.empty(), model.empty());
  }
  std::map<std::uint64_t, std::uint32_t> walked;
  counts.for_each([&](std::uint64_t k, std::uint32_t c) { walked.emplace(k, c); });
  EXPECT_EQ(walked, model);
}

// ---------- FTL against the std::map reference -------------------------------

std::string describe(const std::vector<UnitRun>& runs) {
  std::ostringstream out;
  for (const UnitRun& run : runs) {
    out << "{" << static_cast<int>(run.op) << " " << run.first_unit << "+" << run.count << " "
        << run.bytes.value() << (run.gc ? " gc" : "") << "}";
  }
  return out.str();
}

std::string describe(const FtlStats& s) {
  std::ostringstream out;
  out << s.reads << " " << s.writes << " " << s.read_modify_writes << " " << s.gc_runs << " "
      << s.gc_relocated_pages << " " << s.gc_erased_blocks << " " << s.retired_blocks << " "
      << s.remap_relocated_pages << " " << s.spare_blocks_used;
  return out.str();
}

struct DifferentialCase {
  SsdGeometry geometry;
  NvmTiming timing;
  FtlConfig config;
  std::uint64_t preload_units;
  std::uint64_t span_units;  ///< Logical pages the operations touch.
  std::uint64_t seed;
};

// Everything the FTL answers, after every operation: the same runs out of
// translate() and retire_block(), the same exception when the device is
// full, and periodically every lookup, the stats, wear spread, failure
// state and the mapping audit.
void run_differential(const DifferentialCase& c, int operations) {
  Ftl ftl(c.geometry, c.timing, c.config);
  reference::MapFtl oracle(c.geometry, c.timing, c.config);
  ftl.set_preloaded(c.preload_units * c.timing.page_size);
  oracle.set_preloaded(c.preload_units * c.timing.page_size);
  const std::uint64_t capacity = c.geometry.capacity(c.timing) / c.timing.page_size;
  const std::uint64_t page = c.timing.page_size.value();
  std::mt19937_64 rng(c.seed);
  const auto below = [&](std::uint64_t n) { return rng() % n; };

  const auto compare_state = [&](int step) {
    for (std::uint64_t logical = 0; logical < c.span_units + 8; ++logical) {
      ASSERT_EQ(ftl.lookup(logical), oracle.lookup(logical))
          << "step " << step << " logical " << logical;
    }
    ASSERT_EQ(describe(ftl.stats()), describe(oracle.stats())) << "step " << step;
    ASSERT_EQ(ftl.wear_spread(), oracle.wear_spread()) << "step " << step;
    ASSERT_EQ(ftl.failed(), oracle.failed()) << "step " << step;
    ASSERT_EQ(ftl.capacity_lost(), oracle.capacity_lost()) << "step " << step;
    for (int probe = 0; probe < 16; ++probe) {
      const std::uint64_t unit = below(capacity);
      ASSERT_EQ(ftl.is_bad_block(unit), oracle.is_bad_block(unit)) << "step " << step;
    }
    ASSERT_EQ(ftl.mapping_violations(), oracle.mapping_violations()) << "step " << step;
  };

  int retirements = 0;
  for (int step = 0; step < operations; ++step) {
    const std::uint64_t kind = below(100);
    if (kind < 3 && retirements < 6) {
      // Retire the block holding a live page, a random unit or the block
      // straddling the preload boundary.
      std::uint64_t unit = below(capacity);
      if (kind == 0) unit = ftl.lookup(below(c.span_units));
      if (kind == 1 && c.preload_units > 0) unit = c.preload_units - 1;
      ++retirements;
      std::vector<UnitRun> got;
      std::vector<UnitRun> want;
      bool got_ok = false;
      bool want_ok = false;
      std::string got_error;
      std::string want_error;
      try {
        got_ok = ftl.retire_block(unit, got);
      } catch (const std::exception& e) {
        got_error = e.what();
      }
      try {
        want_ok = oracle.retire_block(unit, want);
      } catch (const std::exception& e) {
        want_error = e.what();
      }
      ASSERT_EQ(got_error, want_error) << "step " << step << " retire " << unit;
      if (!want_error.empty()) break;
      ASSERT_EQ(got_ok, want_ok) << "step " << step << " retire " << unit;
      ASSERT_EQ(describe(got), describe(want)) << "step " << step << " retire " << unit;
    } else {
      // Whole pages, sub-page pieces and unaligned spans, reads and writes.
      BlockRequest request;
      request.op = kind < 55 ? NvmOp::kWrite : NvmOp::kRead;
      const std::uint64_t first = below(c.span_units);
      const std::uint64_t pages = 1 + below(std::min<std::uint64_t>(c.span_units - first, 48));
      switch (below(3)) {
        case 0:
          request.offset = Bytes{first * page};
          request.size = Bytes{pages * page};
          break;
        case 1:
          request.offset = Bytes{first * page + below(page)};
          request.size = Bytes{1 + below(page - request.offset.value() % page)};
          break;
        default:
          request.offset = Bytes{first * page + below(page)};
          request.size = Bytes{pages * page - below(page)};
          break;
      }
      std::vector<UnitRun> got;
      std::vector<UnitRun> want;
      std::string got_error;
      std::string want_error;
      try {
        got = ftl.translate(request);
      } catch (const std::exception& e) {
        got_error = e.what();
      }
      try {
        want = oracle.translate(request);
      } catch (const std::exception& e) {
        want_error = e.what();
      }
      ASSERT_EQ(got_error, want_error) << "step " << step;
      if (!want_error.empty()) break;  // Device full: both gave up alike.
      ASSERT_EQ(describe(got), describe(want))
          << "step " << step << " op " << static_cast<int>(request.op) << " offset "
          << request.offset.value() << " size " << request.size.value();
    }
    if (step % 97 == 0) {
      compare_state(step);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  compare_state(operations);
}

TEST(FtlDifferential, MatchesMapReferenceUnderGcAndRetirement) {
  NvmTiming medium = tiny_timing();
  medium.blocks_per_plane = 16;
  medium.pages_per_block = 32;  // 16 positions x 16 x 32 = 8,192 units.
  NvmTiming pcm_like = tiny_timing();
  pcm_like.page_size = Bytes{64};
  std::uint64_t seed = 1;
  for (const AllocationPolicy policy :
       {AllocationPolicy::kChannelPlaneDie, AllocationPolicy::kChannelDiePlane,
        AllocationPolicy::kDieChannelPlane}) {
    for (const bool wear_aware : {false, true}) {
      for (const std::uint32_t reserve : {1u, 2u}) {
        SsdGeometry geometry = small_geometry();
        geometry.policy = policy;
        FtlConfig config;
        config.gc_reserve_blocks = reserve;
        config.wear_aware = wear_aware;
        config.spare_blocks = 2;
        config.hard_failure_capacity_fraction = 0.5;
        const std::uint64_t cohort = geometry.plane_positions(tiny_timing()) * 8;
        const std::vector<DifferentialCase> cases = {
            // Tiny device: GC runs constantly; the preload ends mid-block.
            {geometry, tiny_timing(), config, cohort + cohort / 2, 96, seed++},
            {geometry, pcm_like, config, 37, 160, seed++},
            // Sixteen 512-key leaves: leaves fill, drain and are freed.
            {geometry, medium, config, 1000, 2500, seed++},
        };
        for (const DifferentialCase& c : cases) {
          SCOPED_TRACE(::testing::Message()
                       << to_string(policy) << " wear_aware=" << wear_aware
                       << " reserve=" << reserve << " pages/block=" << c.timing.pages_per_block
                       << " seed=" << c.seed);
          run_differential(c, 3000);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

// ---------- hardware --------------------------------------------------------

SsdHardware idle_hardware(const NvmTiming& timing) {
  return SsdHardware(paper_geometry(), timing, onfi3_sdr_bus(), false);
}

TEST(Die, ReadActivationMatchesTiming) {
  const NvmTiming timing = slc_timing();
  SsdHardware hardware = idle_hardware(timing);
  const Reservation a = hardware.activate(0, PhysicalAddress{}, NvmOp::kRead, 1, Time{},
                                          timing.read_time_for_page(0));
  EXPECT_EQ(a.start, Time{0});
  EXPECT_EQ(a.end, timing.read_time);
  EXPECT_EQ(a.waited, Time{0});
}

TEST(Die, SamePlaneSerializes) {
  const NvmTiming timing = slc_timing();
  SsdHardware hardware = idle_hardware(timing);
  hardware.activate(0, PhysicalAddress{}, NvmOp::kRead, 1, Time{}, timing.read_time_for_page(0));
  const Reservation b = hardware.activate(0, PhysicalAddress{}, NvmOp::kRead, 1, Time{},
                                          timing.read_time_for_page(1));
  EXPECT_EQ(b.start, timing.read_time);
  EXPECT_EQ(b.waited, timing.read_time);
}

TEST(Die, PlanesRunConcurrently) {
  const NvmTiming timing = slc_timing();
  SsdHardware hardware = idle_hardware(timing);
  PhysicalAddress second;
  second.plane = 1;
  const std::uint32_t plane = hardware.geometry.plane_index(second, timing);
  ASSERT_EQ(plane, 1u);  // A die's planes are adjacent.
  const Reservation a = hardware.activate(0, PhysicalAddress{}, NvmOp::kRead, 1, Time{},
                                          timing.read_time_for_page(0));
  const Reservation b =
      hardware.activate(plane, second, NvmOp::kRead, 1, Time{}, timing.read_time_for_page(0));
  EXPECT_EQ(a.start, Time{0});
  EXPECT_EQ(b.start, Time{0});  // Multi-plane: no contention across planes.
}

TEST(Die, EraseTakesEraseTime) {
  const NvmTiming timing = tlc_timing();
  SsdHardware hardware = idle_hardware(timing);
  PhysicalAddress address;
  address.channel = 3;
  address.package = 2;
  address.die = 1;
  address.plane = 1;
  address.block = 5;
  const Reservation e =
      hardware.activate(hardware.geometry.plane_index(address, timing), address,
                        NvmOp::kErase, 1, Time{}, timing.erase_time);
  EXPECT_EQ(e.end - e.start, timing.erase_time);
  EXPECT_EQ(hardware.wear.erases(hardware.geometry.block_index(address, timing)), 1u);
  EXPECT_EQ(hardware.wear.summary().total_erases, 1u);
}

TEST(Package, FlashBusSerializesAcrossDies) {
  SsdHardware hardware = idle_hardware(slc_timing());
  const Time transfer = hardware.bus.transfer_time(2 * KiB);
  const Reservation a = hardware.ports[0].reserve(Time{}, transfer);
  const Reservation b = hardware.ports[0].reserve(Time{}, transfer);
  EXPECT_EQ(b.start, a.end);  // One port per package.
}

// ---------- controller ------------------------------------------------------

struct ControllerFixture {
  explicit ControllerFixture(NvmType media = NvmType::kSlc, bool backfill = false) {
    config.media = media;
    config.controller.queue_backfill = backfill;
    ssd = std::make_unique<Ssd>(config);
    ssd->preload(GiB);
  }
  SsdConfig config;
  std::unique_ptr<Ssd> ssd;
};

TEST(Controller, LargeReadReachesPal4) {
  ControllerFixture f;
  const RequestResult r = f.ssd->submit({NvmOp::kRead, Bytes{}, 4 * MiB, false, false}, Time{});
  EXPECT_EQ(r.pal, ParallelismLevel::kPal4);
  EXPECT_EQ(r.transactions, 4 * MiB / (2 * KiB));
}

TEST(Controller, SinglePageReadIsPal1) {
  ControllerFixture f;
  const RequestResult r = f.ssd->submit({NvmOp::kRead, Bytes{}, 2 * KiB, false, false}, Time{});
  EXPECT_EQ(r.pal, ParallelismLevel::kPal1);
  EXPECT_EQ(r.transactions, 1u);
}

TEST(Controller, ChannelPlaneSpanIsPal3) {
  // 16 SLC pages = 8 channels x 2 planes, one die each: multi-plane
  // without die interleaving.
  ControllerFixture f;
  const RequestResult r = f.ssd->submit({NvmOp::kRead, Bytes{}, 32 * KiB, false, false}, Time{});
  EXPECT_EQ(r.pal, ParallelismLevel::kPal3);
}

TEST(Controller, DieSpanWithoutPlanesIsPal2) {
  // With channel-die-plane order, 16 pages span two dies per channel on
  // one plane.
  ControllerFixture f;
  f.config.geometry.policy = AllocationPolicy::kChannelDiePlane;
  f.ssd = std::make_unique<Ssd>(f.config);
  f.ssd->preload(GiB);
  const RequestResult r = f.ssd->submit({NvmOp::kRead, Bytes{}, 32 * KiB, false, false}, Time{});
  EXPECT_EQ(r.pal, ParallelismLevel::kPal2);
}

TEST(Controller, ReadLatencyBounds) {
  ControllerFixture f;
  const NvmTiming timing = f.ssd->timing();
  const RequestResult r = f.ssd->submit({NvmOp::kRead, Bytes{}, 2 * KiB, false, false}, Time{});
  const Time lower = timing.read_time + onfi3_sdr_bus().transfer_time(2 * KiB);
  EXPECT_GE(r.media_end, lower);
  EXPECT_LE(r.media_end, lower + timing.command_time +
                             onfi3_sdr_bus().transfer_time(2 * KiB) + kMicrosecond);
}

TEST(Controller, ConcurrentRequestsShareChannels) {
  ControllerFixture f;
  const RequestResult a = f.ssd->submit({NvmOp::kRead, Bytes{}, 2 * KiB, false, false}, Time{});
  // Different channel (offset 2 KiB = unit 1 = channel 1): no contention.
  const RequestResult b = f.ssd->submit({NvmOp::kRead, 2 * KiB, 2 * KiB, false, false}, Time{});
  EXPECT_LT(std::max(a.media_end, b.media_end),
            2 * f.ssd->timing().read_time + 100 * kMicrosecond);
}

TEST(Controller, PcmBurstsGroupTransactions) {
  ControllerFixture f(NvmType::kPcm);
  // 1 MiB = 16384 lines over 512 plane positions -> grouped bursts, far
  // fewer transactions than lines.
  const RequestResult r = f.ssd->submit({NvmOp::kRead, Bytes{}, MiB, false, false}, Time{});
  EXPECT_LE(r.transactions, 512u * 4);
  EXPECT_GE(r.transactions, 256u);
  EXPECT_EQ(r.pal, ParallelismLevel::kPal4);
}

TEST(Controller, PcmSmallReadStillSpreads) {
  ControllerFixture f(NvmType::kPcm);
  // Even a 4 KiB request covers 64 lines across channels/planes (the
  // paper: PCM requests "can easily be spread across all dies").
  const RequestResult r = f.ssd->submit({NvmOp::kRead, Bytes{}, 4 * KiB, false, false}, Time{});
  EXPECT_EQ(r.pal, ParallelismLevel::kPal4);
}

TEST(Controller, WritesLandOnCells) {
  ControllerFixture f;
  const RequestResult r = f.ssd->submit({NvmOp::kWrite, Bytes{}, 2 * KiB, false, false}, Time{});
  const ControllerStats& stats = f.ssd->controller_stats();
  EXPECT_GE(stats.phase_time[static_cast<int>(Phase::kCellActivation)],
            f.ssd->timing().write_min);
  EXPECT_GE(r.media_end, f.ssd->timing().write_min);
}

TEST(Controller, BackfillNeverWorseThanFifo) {
  ControllerFixture fifo(NvmType::kTlc, false);
  ControllerFixture paq(NvmType::kTlc, true);
  Time fifo_end;
  Time paq_end;
  for (int i = 0; i < 16; ++i) {
    const Bytes offset = i * 8 * 8 * KiB;  // Same channel.
    fifo_end = std::max(
        fifo_end,
        fifo.ssd->submit({NvmOp::kRead, offset, 8 * KiB, false, false}, Time{}).media_end);
    paq_end = std::max(
        paq_end,
        paq.ssd->submit({NvmOp::kRead, offset, 8 * KiB, false, false}, Time{}).media_end);
  }
  EXPECT_LE(paq_end, fifo_end);
}

TEST(Controller, StatsAccumulate) {
  ControllerFixture f;
  f.ssd->submit({NvmOp::kRead, Bytes{}, 64 * KiB, false, false}, Time{});
  f.ssd->submit({NvmOp::kRead, 64 * KiB, 64 * KiB, false, false}, Time{});
  const ControllerStats& stats = f.ssd->controller_stats();
  EXPECT_EQ(stats.requests, 2u);
  Bytes pal_total;
  for (const Bytes b : stats.pal_bytes) pal_total += b;
  EXPECT_EQ(pal_total, 128 * KiB);
  EXPECT_EQ(stats.internal_bytes, Bytes{0});
  EXPECT_EQ(stats.transactions, 64u);
  EXPECT_GT(stats.phase_time[static_cast<int>(Phase::kCellActivation)], Time{0});
}

TEST(Controller, InternalRequestsCountSeparately) {
  ControllerFixture f;
  f.ssd->submit({NvmOp::kRead, Bytes{}, 4 * KiB, false, true}, Time{});
  f.ssd->submit({NvmOp::kRead, 4 * KiB, 8 * KiB, false, false}, Time{});
  const ControllerStats& stats = f.ssd->controller_stats();
  EXPECT_EQ(stats.internal_bytes, 4 * KiB);
}

TEST(Controller, WriteBackCacheAcksAtTransfer) {
  SsdConfig config;
  config.media = NvmType::kTlc;  // Slow programs: the cache matters most.
  config.controller.write_buffer = 16 * MiB;
  Ssd cached(config);
  cached.preload(GiB);
  config.controller.write_buffer = Bytes{};
  Ssd through(config);
  through.preload(GiB);

  const BlockRequest write{NvmOp::kWrite, Bytes{}, 64 * KiB, false, false};
  const RequestResult fast = cached.submit(write, Time{});
  const RequestResult slow = through.submit(write, Time{});
  // Cached: acknowledged after the channel transfer, long before the
  // 440-6000 us TLC program.
  EXPECT_LT(fast.media_end, 200 * kMicrosecond);
  EXPECT_GE(slow.media_end, 440 * kMicrosecond);
}

TEST(Controller, WriteBackCacheOverflowFallsBack) {
  SsdConfig config;
  config.media = NvmType::kTlc;
  config.controller.write_buffer = 128 * KiB;  // Tiny buffer.
  Ssd ssd(config);
  ssd.preload(GiB);
  // First write fits and acks fast; the second (arriving immediately)
  // finds the buffer dirty and must wait for real programming.
  const RequestResult first = ssd.submit({NvmOp::kWrite, Bytes{}, 128 * KiB, false, false}, Time{});
  const RequestResult second =
      ssd.submit({NvmOp::kWrite, MiB, 128 * KiB, false, false}, first.media_end);
  EXPECT_LT(first.media_end, 2 * kMillisecond);
  EXPECT_GE(second.media_end, 440 * kMicrosecond);
  EXPECT_GT(second.media_end, first.media_end + 400 * kMicrosecond);
}

TEST(Controller, WriteBackCacheDrains) {
  SsdConfig config;
  config.media = NvmType::kSlc;
  config.controller.write_buffer = 256 * KiB;
  Ssd ssd(config);
  ssd.preload(GiB);
  ssd.submit({NvmOp::kWrite, Bytes{}, 256 * KiB, false, false}, Time{});
  // Well after the SLC programs finish (250 us), the buffer is clean and
  // a new write acks fast again.
  const RequestResult later =
      ssd.submit({NvmOp::kWrite, MiB, 256 * KiB, false, false}, 10 * kMillisecond);
  EXPECT_LT(later.media_end - later.issue, 2 * kMillisecond);
}

// ---------- device stats ----------------------------------------------------

TEST(DeviceStats, SaturatedSequentialKeepsChannelsBusy) {
  // On the SDR bus the channel is the bottleneck: channel utilisation
  // saturates while packages spend most of their time waiting to
  // transfer (low package utilisation) — the Figure 7b/9 signature.
  ControllerFixture f(NvmType::kTlc);
  Bytes offset;
  for (int i = 0; i < 64; ++i) {
    f.ssd->submit({NvmOp::kRead, offset, MiB, false, false}, Time{});
    offset += MiB;
  }
  const Time makespan = f.ssd->controller_stats().last_completion;
  const DeviceStats stats = f.ssd->device_stats(makespan);
  EXPECT_GT(stats.channel_utilization, 0.9);
  EXPECT_GT(stats.package_utilization, 0.05);
  EXPECT_LT(stats.package_utilization, 0.5);
  EXPECT_GT(stats.active_time, Time{0});
}

TEST(DeviceStats, FutureDdrBusShiftsBottleneckToCells) {
  // Same workload on the future DDR bus: transfers get 4x faster, so the
  // TLC cells become the limit and packages stay far busier.
  SsdConfig config;
  config.media = NvmType::kTlc;
  config.bus = future_ddr_bus();
  Ssd ssd(config);
  ssd.preload(GiB);
  Bytes offset;
  for (int i = 0; i < 64; ++i) {
    ssd.submit({NvmOp::kRead, offset, MiB, false, false}, Time{});
    offset += MiB;
  }
  const Time makespan = ssd.controller_stats().last_completion;
  const DeviceStats stats = ssd.device_stats(makespan);
  EXPECT_GT(stats.package_utilization, 0.3);
}

TEST(DeviceStats, MediaCapabilityIsChannelBoundForSlc) {
  ControllerFixture f;
  // SLC cell aggregate (~20 GB/s) exceeds 8 channels x 400 MB/s.
  EXPECT_NEAR(f.ssd->media_capability_bytes_per_sec(), 8 * 400e6, 1e6);
}

TEST(DeviceStats, IdleDeviceLeavesFullCapability) {
  ControllerFixture f;
  const DeviceStats stats = f.ssd->device_stats(kSecond);
  EXPECT_DOUBLE_EQ(stats.remaining_bandwidth, stats.media_capability);
}

TEST(DeviceStats, ZeroWallTimeYieldsFiniteUtilization) {
  // Regression: device_stats(Time{}) on a busy device used to divide by the
  // zero wall time. The guard substitutes the active window, so the
  // ratios stay finite and in range.
  ControllerFixture f;
  f.ssd->submit({NvmOp::kRead, Bytes{}, MiB, false, false}, Time{});
  const DeviceStats stats = f.ssd->device_stats(Time{});
  EXPECT_TRUE(std::isfinite(stats.channel_utilization));
  EXPECT_TRUE(std::isfinite(stats.package_utilization));
  EXPECT_GE(stats.channel_utilization, 0.0);
  EXPECT_LE(stats.channel_utilization, 1.0);
  EXPECT_TRUE(std::isfinite(stats.remaining_bandwidth));
}

/// Records the channel, port and plane steps the controller reports to
/// the probe, as raw spans: the oracles below rebuild every busy union
/// from them, without the device's own BusyTrackers.
class StepUnions final : public probe::Subscriber {
 public:
  using Spans = std::vector<std::pair<Time, Time>>;

  explicit StepUnions(const SsdHardware& hardware)
      : probe::Subscriber(probe::bit(probe::Kind::kInterval)),
        hardware(hardware),
        channels(hardware.channels.size()),
        ports(hardware.ports.size()),
        planes(hardware.planes.size()) {}

  void on_interval(const probe::Interval& iv) override {
    const SsdGeometry& geometry = hardware.geometry;
    const probe::Site& site = iv.site;
    switch (iv.resource) {
      case probe::Resource::kChannel:
        channels.at(site.channel).emplace_back(iv.start, iv.end);
        break;
      case probe::Resource::kPort:
        ports.at(site.channel * geometry.packages_per_channel + site.package)
            .emplace_back(iv.start, iv.end);
        break;
      case probe::Resource::kCell: {
        const PhysicalAddress address{site.channel, site.package, site.die, site.plane, 0, 0};
        planes.at(geometry.plane_index(address, hardware.timing)).emplace_back(iv.start, iv.end);
        break;
      }
      default:
        break;
    }
  }

  // The steps of each union's parts. Dies, packages and channels are
  // numbered row-major, like the planes.
  Spans die(std::uint32_t die) const {
    const std::uint32_t planes_per_die = hardware.timing.planes_per_die;
    Spans out;
    for (std::uint32_t plane = 0; plane < planes_per_die; ++plane) {
      append(out, planes[die * planes_per_die + plane]);
    }
    return out;
  }
  Spans package(std::uint32_t package) const {
    const std::uint32_t dies = hardware.geometry.dies_per_package;
    Spans out = ports[package];
    for (std::uint32_t d = 0; d < dies; ++d) append(out, die(package * dies + d));
    return out;
  }
  Spans channel(std::uint32_t c) const {
    const std::uint32_t packages = hardware.geometry.packages_per_channel;
    Spans out = channels[c];
    for (std::uint32_t p = 0; p < packages; ++p) append(out, package(c * packages + p));
    return out;
  }
  Spans device() const {
    Spans out;
    for (std::uint32_t c = 0; c < hardware.geometry.channels; ++c) append(out, channel(c));
    return out;
  }

  const SsdHardware& hardware;
  std::vector<Spans> channels;
  std::vector<Spans> ports;
  std::vector<Spans> planes;

 private:
  static void append(Spans& out, const Spans& more) {
    out.insert(out.end(), more.begin(), more.end());
  }
};

/// The sort-based union: sort the spans, then sweep.
Time union_time(StepUnions::Spans spans) {
  std::sort(spans.begin(), spans.end());
  Time total;
  Time covered_to;
  bool any = false;
  for (const auto& [start, end] : spans) {
    if (!any || start > covered_to) {
      total += end - start;
      covered_to = end;
      any = true;
    } else if (end > covered_to) {
      total += end - covered_to;
      covered_to = end;
    }
  }
  return total;
}

/// The four-pass device_stats computation: each union concatenates the
/// steps reported for its parts and sorts them.
DeviceStats four_pass_device_stats(const StepUnions& steps, Time wall_time,
                                   double media_capability) {
  const SsdGeometry& g = steps.hardware.geometry;
  DeviceStats stats;
  stats.media_capability = media_capability;
  stats.active_time = union_time(steps.device());
  if (stats.active_time <= Time{}) {
    stats.remaining_bandwidth = stats.media_capability;
    return stats;
  }
  if (wall_time <= Time{}) wall_time = stats.active_time;
  const double active = static_cast<double>(stats.active_time);

  double channel_sum = 0.0;
  for (std::uint32_t c = 0; c < g.channels; ++c) {
    channel_sum += std::clamp(static_cast<double>(union_time(steps.channel(c))) / active, 0.0, 1.0);
  }
  stats.channel_utilization = channel_sum / g.channels;

  double package_sum = 0.0;
  for (std::uint32_t package = 0; package < g.total_packages(); ++package) {
    package_sum += std::min(1.0, static_cast<double>(union_time(steps.package(package))) / active);
  }
  double die_sum = 0.0;
  for (std::uint32_t die = 0; die < g.total_dies(); ++die) {
    die_sum += std::min(1.0, static_cast<double>(union_time(steps.die(die))) /
                                 static_cast<double>(wall_time));
  }
  stats.package_utilization = package_sum / g.total_packages();
  stats.die_wall_utilization = g.total_dies() > 0 ? die_sum / g.total_dies() : 0.0;
  stats.remaining_bandwidth = stats.media_capability * (1.0 - stats.die_wall_utilization);
  return stats;
}

/// Every busy union the hardware keeps against the oracle: the
/// sort-based union of the steps reported for its parts.
void expect_unions_match_steps(const SsdHardware& hardware, const StepUnions& steps) {
  const SsdGeometry& g = hardware.geometry;
  for (std::uint32_t die = 0; die < g.total_dies(); ++die) {
    EXPECT_EQ(hardware.die_busy[die].busy_time(), union_time(steps.die(die))) << "die " << die;
  }
  for (std::uint32_t package = 0; package < g.total_packages(); ++package) {
    EXPECT_EQ(hardware.package_busy[package].busy_time(), union_time(steps.package(package)))
        << "package " << package;
  }
  for (std::uint32_t c = 0; c < g.channels; ++c) {
    EXPECT_EQ(hardware.channel_busy[c].busy_time(), union_time(steps.channel(c)))
        << "channel " << c;
  }
  EXPECT_EQ(hardware.device_busy.busy_time(), union_time(steps.device()));
  EXPECT_GT(hardware.device_busy.busy_time(), Time{});
}

void expect_same_device_stats(const DeviceStats& got, const DeviceStats& want) {
  EXPECT_EQ(got.active_time, want.active_time);
  EXPECT_EQ(got.channel_utilization, want.channel_utilization);
  EXPECT_EQ(got.package_utilization, want.package_utilization);
  EXPECT_EQ(got.die_wall_utilization, want.die_wall_utilization);
  EXPECT_EQ(got.media_capability, want.media_capability);
  EXPECT_EQ(got.remaining_bandwidth, want.remaining_bandwidth);
}

/// Collects the phase ledger of every device request the engine closes.
class LedgerRecorder final : public probe::Subscriber {
 public:
  LedgerRecorder() : probe::Subscriber(probe::bit(probe::Kind::kRequest)) {}
  void on_request_close(const probe::RequestClose& request) override {
    ledgers.push_back(request.ledger);
  }
  std::vector<probe::PhaseLedger> ledgers;
};

/// Replays `trace` on an engine, whose device folds behind the issue
/// watermark, and on an unfolded twin of that device: a fresh Ssd of the
/// same configuration whose watermark never advances, fed the same device
/// requests at the arrivals the engine gave them. The four-pass oracle
/// reads every step the engine's controller reported and must agree with
/// both devices' device_stats field for field.
void expect_folded_device_stats_match_four_pass(
    const ExperimentConfig& config, const Trace& trace,
    const std::function<void(const ExperimentResult&, Ssd&)>& check) {
  ReplayEngine engine(config);
  LedgerRecorder recorder;
  StepUnions steps(engine.ssd().hardware());
  ExperimentResult result;
  {
    const probe::Scoped listen(probe::Slot::kFlight, &recorder);
    const probe::Scoped listen_steps(probe::Slot::kLatency, &steps);
    result = engine.run(trace);
  }
  ASSERT_FALSE(result.reliability.aborted);

  Ssd twin(engine.ssd().config());
  twin.preload(trace.extent());
  const std::unique_ptr<IoPath> path = mount_io_path(config, trace.extent());
  std::size_t next = 0;
  for (const PosixRequest& posix : trace.requests()) {
    for (const BlockRequest& request : path->submit(posix)) {
      if (request.size == Bytes{}) continue;
      ASSERT_LT(next, recorder.ledgers.size());
      const probe::PhaseLedger& ledger = recorder.ledgers[next++];
      ASSERT_EQ(ledger.bytes, request.size.value());
      const RequestResult media = twin.submit(request, ledger.media_begin);
      ASSERT_EQ(media.media_end, ledger.media_end) << "request " << ledger.id;
    }
  }
  ASSERT_EQ(next, recorder.ledgers.size());
  check(result, twin);

  // The replay's own makespan, a short and a zero wall (the fallback).
  for (const Time wall : {result.makespan, result.makespan / 4, Time{}}) {
    const DeviceStats want =
        four_pass_device_stats(steps, wall, twin.media_capability_bytes_per_sec());
    expect_same_device_stats(engine.ssd().device_stats(wall), want);
    expect_same_device_stats(twin.device_stats(wall), want);
  }
}

Trace checkpointing_trace() {
  SyntheticWorkloadParams params;
  params.dataset_bytes = 16 * MiB;
  params.tile_bytes = 4 * MiB;
  params.sweeps = 2;
  params.checkpoint_bytes = 8 * MiB;
  return synthesize_ooc_trace(params);
}

// Differential: the die, package, channel and device unions the hardware
// keeps as grants land, folded behind the watermark, give every field the
// four-pass sort-and-union gives over every step of the replay, bit for
// bit.
TEST(DeviceStats, BottomUpPassMatchesFourPassOnMixedReplay) {
  expect_folded_device_stats_match_four_pass(
      cnl_fs_config(ext3_behavior(), NvmType::kMlc), checkpointing_trace(),
      [](const ExperimentResult& /*result*/, Ssd& twin) {
        ASSERT_GT(twin.ftl_stats().writes, 0u);
      });
}

TEST(DeviceStats, BottomUpPassMatchesFourPassOnFaultedReplay) {
  ExperimentConfig config = cnl_ufs_config(NvmType::kMlc);
  config.fault.enabled = true;
  config.fault.rber = 4e-3;
  config.fault.channel_stalls.push_back({1, Time{}, 50 * kMicrosecond});
  expect_folded_device_stats_match_four_pass(
      config, checkpointing_trace(), [](const ExperimentResult& result, Ssd& twin) {
        ASSERT_GT(result.reliability.read_retries, 0u);
        ASSERT_EQ(twin.controller_stats().reliability.read_retries,
                  result.reliability.read_retries);
      });
}

void expect_same_result(const RequestResult& got, const RequestResult& want) {
  EXPECT_EQ(got.issue, want.issue);
  EXPECT_EQ(got.media_begin, want.media_begin);
  EXPECT_EQ(got.media_end, want.media_end);
  EXPECT_EQ(got.bytes, want.bytes);
  EXPECT_EQ(got.transactions, want.transactions);
  EXPECT_EQ(got.pal, want.pal);
  EXPECT_EQ(got.phase_time, want.phase_time);
  EXPECT_EQ(got.retries, want.retries);
  EXPECT_EQ(got.uncorrectable_units, want.uncorrectable_units);
  EXPECT_EQ(got.uncorrectable_bytes, want.uncorrectable_bytes);
  EXPECT_EQ(got.retry_time, want.retry_time);
  EXPECT_EQ(got.hard_failure, want.hard_failure);
}

struct TwinCase {
  const char* name = "";
  SsdConfig config;
  /// Share of requests that are writes, in percent.
  std::uint64_t write_percent = 0;
  /// Bytes pre-loaded; requests address [0, preload).
  Bytes preload = 256 * MiB;
  Bytes max_request = 256 * KiB;
  /// Writes address [0, write_span) when set; rewriting a small hot span
  /// invalidates pages, which is what gives garbage collection victims.
  Bytes write_span;
};

std::vector<TwinCase> twin_cases() {
  std::vector<TwinCase> cases;
  for (const bool backfill : {true, false}) {
    TwinCase pcm;
    pcm.name = "pcm burst";
    pcm.config.media = NvmType::kPcm;
    pcm.config.controller.queue_backfill = backfill;
    pcm.max_request = 32 * KiB;
    cases.push_back(pcm);

    // A small MLC device, pre-loaded to within a few erase cohorts of
    // full, so rewrites drive garbage collection.
    TwinCase mlc;
    mlc.name = "mlc writes and gc";
    mlc.config.media = NvmType::kMlc;
    mlc.config.geometry.channels = 2;
    mlc.config.geometry.packages_per_channel = 2;
    mlc.config.geometry.dies_per_package = 2;
    mlc.config.controller.queue_backfill = backfill;
    mlc.write_percent = 50;
    mlc.write_span = MiB;
    mlc.preload =
        mlc.config.geometry.capacity(timing_for(NvmType::kMlc)) - 24 * MiB;
    cases.push_back(mlc);

    TwinCase faulty;
    faulty.name = "mlc faults";
    faulty.config.media = NvmType::kMlc;
    faulty.config.controller.queue_backfill = backfill;
    faulty.config.fault.enabled = true;
    faulty.config.fault.rber = 4e-3;
    faulty.config.fault.channel_stalls.push_back({1, 200 * kMicrosecond, 300 * kMicrosecond});
    faulty.config.fault.stuck_dies.push_back({3, 1, 0, 2 * kMillisecond});
    faulty.write_percent = 20;
    cases.push_back(faulty);
  }
  return cases;
}

/// A seeded stream of reads and writes over a TwinCase's address ranges,
/// with arrivals that never go back in time: bursts of simultaneous
/// arrivals queue and backfill, pauses idle.
class RequestStream {
 public:
  explicit RequestStream(const TwinCase& twin_case)
      : write_percent_(twin_case.write_percent),
        max_request_(twin_case.max_request.value()),
        read_kib_((twin_case.preload - twin_case.max_request) / KiB),
        write_kib_(twin_case.write_span > Bytes{} ? twin_case.write_span / KiB : read_kib_) {}

  /// The next request; `arrival` is advanced to its arrival time.
  BlockRequest next(Time& arrival) {
    if (draw() % 4 == 0) arrival += Time{static_cast<std::int64_t>(draw() % 400'000'000)};
    const bool write = draw() % 100 < write_percent_;
    // Mostly whole KiB (reads of several pages), sometimes odd bytes so
    // writes hit the read-modify-write edge path.
    Bytes offset = (draw() % (write ? write_kib_ : read_kib_)) * KiB;
    if (draw() % 3 == 0) offset += Bytes{draw() % 1000};
    const Bytes size = Bytes{1 + draw() % max_request_};
    return {write ? NvmOp::kWrite : NvmOp::kRead, offset, size, false, false};
  }

 private:
  std::uint64_t draw() {
    state_ ^= state_ << 13;
    state_ ^= state_ >> 7;
    state_ ^= state_ << 17;
    return state_;
  }

  std::uint64_t state_ = 0x9e3779b97f4a7c15ULL;
  std::uint64_t write_percent_;
  std::uint64_t max_request_;
  std::uint64_t read_kib_;
  std::uint64_t write_kib_;
};

/// Live intervals across the device's busy unions.
std::uint64_t live_union_intervals(const SsdHardware& hardware) {
  std::uint64_t live = hardware.device_busy.interval_count();
  for (const std::vector<BusyTracker>* unions :
       {&hardware.die_busy, &hardware.package_busy, &hardware.channel_busy}) {
    for (const BusyTracker& busy : *unions) live += busy.interval_count();
  }
  return live;
}

/// Counts the union intervals the reported steps can add: a plane step
/// of positive length joins four busy unions (die, package, channel and
/// device), a port step three and a channel step two.
class UnionAdds final : public probe::Subscriber {
 public:
  UnionAdds() : probe::Subscriber(probe::bit(probe::Kind::kInterval)) {}
  void on_interval(const probe::Interval& iv) override {
    if (iv.end <= iv.start) return;
    switch (iv.resource) {
      case probe::Resource::kCell:
        adds += 4;
        break;
      case probe::Resource::kPort:
        adds += 3;
        break;
      case probe::Resource::kChannel:
        adds += 2;
        break;
      default:
        break;
    }
  }
  std::uint64_t adds = 0;
};

// Differential: a device that folds behind an advancing watermark answers
// every request, and every device statistic, exactly as its unfolded twin
// does, over seeded random streams of reads and writes with arrivals that
// never go back in time. The folded twin also keeps to the cadence and
// memory bound Ssd::advance_watermark states: it folds once it has run
// max(T, L) transactions since its last fold (T timelines, L the live
// union intervals that fold left), and in between each reservation adds
// at most one interval to each union it joins (four for a plane, three
// for a port, two for a channel bus), so the live count stays below
// L + 4R·(max(T, L) + K).
TEST(DeviceStats, FoldedSsdMatchesUnfoldedTwin) {
  for (const TwinCase& twin_case : twin_cases()) {
    SCOPED_TRACE(::testing::Message() << twin_case.name << " backfill="
                                      << twin_case.config.controller.queue_backfill);
    Ssd folded(twin_case.config);
    Ssd unfolded(twin_case.config);
    folded.preload(twin_case.preload);
    unfolded.preload(twin_case.preload);
    RequestStream stream(twin_case);
    Time arrival;
    Time last_end;
    const SsdHardware& hardware = folded.hardware();
    const std::uint64_t timelines =
        hardware.channels.size() + hardware.ports.size() + hardware.planes.size();
    std::uint64_t live_at_fold = 0;
    UnionAdds union_adds;
    std::uint64_t adds_at_fold = 0;
    std::uint64_t fold_transactions = 0;
    int shrinking_folds = 0;
    for (int i = 0; i < 600; ++i) {
      const BlockRequest request = stream.next(arrival);
      const std::uint64_t transactions = folded.controller_stats().transactions;
      const bool due = transactions - fold_transactions >= std::max(timelines, live_at_fold);
      const std::uint64_t live_before = live_union_intervals(hardware);
      folded.advance_watermark(arrival);
      const std::uint64_t after = live_union_intervals(hardware);
      if (due) {
        EXPECT_LE(after, live_before);
        if (after < live_before) ++shrinking_folds;
        live_at_fold = after;
        adds_at_fold = union_adds.adds;
        fold_transactions = transactions;
      } else {
        EXPECT_EQ(after, live_before);  // Not due: no fold.
      }
      const RequestResult got = [&] {
        const probe::Scoped listen(probe::Slot::kLatency, &union_adds);
        return folded.submit(request, arrival);
      }();
      const RequestResult want = unfolded.submit(request, arrival);
      expect_same_result(got, want);
      last_end = std::max(last_end, want.media_end);

      EXPECT_LE(live_union_intervals(hardware), live_at_fold + (union_adds.adds - adds_at_fold));
      EXPECT_LT(folded.controller_stats().transactions - fold_transactions,
                std::max(timelines, live_at_fold) + got.transactions);
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_GT(shrinking_folds, 2);
    EXPECT_LT(live_union_intervals(hardware), live_union_intervals(unfolded.hardware()));
    if (twin_case.write_percent > 0 && !twin_case.config.fault.enabled) {
      EXPECT_GT(unfolded.ftl_stats().gc_runs, 0u);
    }
    if (twin_case.config.fault.enabled) {
      EXPECT_GT(unfolded.controller_stats().reliability.read_retries, 0u);
      EXPECT_GT(unfolded.controller_stats().reliability.channel_stalls, 0u);
      EXPECT_GT(unfolded.controller_stats().reliability.die_stuck_reads, 0u);
    }
    for (const Time wall : {last_end, last_end / 3, Time{}}) {
      expect_same_device_stats(folded.device_stats(wall), unfolded.device_stats(wall));
    }
  }
}

// Differential: the hardware adds each grant to the busy unions where it
// lands, and the controller reports each reservation to the probe as a
// step; the two records are kept apart. For every die, package, channel
// and the device, the union's busy time must equal the sort-based union
// of the steps reported for its parts, on a device that folds behind an
// advancing watermark and on one that never folds, over read, write, GC
// and fault (retry ladder, channel stall, stuck die) streams. A grant
// missing from a union, or a step that goes unreported, sets them apart.
TEST(Controller, BusyUnionsMatchReportedSteps) {
  for (const TwinCase& twin_case : twin_cases()) {
    SCOPED_TRACE(::testing::Message() << twin_case.name << " backfill="
                                      << twin_case.config.controller.queue_backfill);
    std::uint64_t live[2] = {0, 0};
    for (const bool fold : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "fold=" << fold);
      Ssd ssd(twin_case.config);
      ssd.preload(twin_case.preload);
      StepUnions steps(ssd.hardware());
      {
        const probe::Scoped listen(probe::Slot::kLatency, &steps);
        RequestStream stream(twin_case);
        Time arrival;
        for (int i = 0; i < 600; ++i) {
          const BlockRequest request = stream.next(arrival);
          if (fold) ssd.advance_watermark(arrival);
          ssd.submit(request, arrival);
        }
      }
      if (twin_case.write_percent > 0 && !twin_case.config.fault.enabled) {
        EXPECT_GT(ssd.ftl_stats().gc_runs, 0u);
      }
      if (twin_case.config.fault.enabled) {
        EXPECT_GT(ssd.controller_stats().reliability.read_retries, 0u);
        EXPECT_GT(ssd.controller_stats().reliability.channel_stalls, 0u);
        EXPECT_GT(ssd.controller_stats().reliability.die_stuck_reads, 0u);
      }
      expect_unions_match_steps(ssd.hardware(), steps);
      live[fold] = live_union_intervals(ssd.hardware());
    }
    EXPECT_LT(live[1], live[0]);  // The folded device did fold.
  }
}

/// FNV-1a over the 64-bit words of a run's results.
class Fingerprint {
 public:
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (word >> (8 * byte)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(Time t) { add(static_cast<std::uint64_t>(t.ps())); }
  void add(Bytes b) { add(b.value()); }
  std::string hex() const {
    char out[17];
    std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(hash_));
    return out;
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void fingerprint(Fingerprint& f, const RequestResult& r) {
  f.add(r.issue);
  f.add(r.media_begin);
  f.add(r.media_end);
  f.add(r.bytes);
  f.add(r.transactions);
  f.add(static_cast<std::uint64_t>(r.pal));
  for (const Time t : r.phase_time) f.add(t);
  f.add(r.retries);
  f.add(r.uncorrectable_units);
  f.add(r.uncorrectable_bytes);
  f.add(r.retry_time);
  f.add(r.hard_failure ? 1 : 0);
}

/// What a request stream added up to, counted from its requests and
/// results: the figures ControllerStats once kept itself, still pinned.
struct StreamTally {
  Bytes payload_bytes;  ///< Non-internal request bytes.
  std::array<std::uint64_t, 4> pal_requests{};
  Time first_arrival{-1};

  void add(const BlockRequest& request, Time arrival, const RequestResult& result) {
    if (!request.internal) payload_bytes += request.size;
    ++pal_requests[static_cast<int>(result.pal)];
    if (first_arrival < Time{}) first_arrival = arrival;
  }
};

void fingerprint(Fingerprint& f, const ControllerStats& s, const StreamTally& tally) {
  for (const Time t : s.phase_time) f.add(t);
  for (const Time t : s.cell_time_by_op) f.add(t);
  f.add(s.bus_time);
  f.add(s.transactions);
  f.add(s.requests);
  f.add(tally.payload_bytes);
  f.add(s.internal_bytes);
  for (const Bytes b : s.pal_bytes) f.add(b);
  for (const std::uint64_t n : tally.pal_requests) f.add(n);
  f.add(tally.first_arrival);
  f.add(s.last_completion);
  const ReliabilityStats& r = s.reliability;
  f.add(r.corrected_reads);
  f.add(r.read_retries);
  f.add(r.uncorrectable_reads);
  f.add(r.die_stuck_reads);
  f.add(r.channel_stalls);
  f.add(r.retry_time);
  f.add(r.remapped_blocks);
  f.add(r.remap_relocations);
  f.add(r.spare_blocks_used);
  f.add(r.capacity_lost);
  f.add(r.hard_failure ? 1 : 0);
}

/// The digest cases: PCM bursts, MLC and TLC writes with garbage
/// collection, MLC with rber, a channel stall and a stuck die, and MLC
/// behind the write buffer, each under every allocation policy with
/// backfill on and off.
std::vector<TwinCase> digest_cases() {
  std::vector<TwinCase> bases;
  TwinCase pcm;
  pcm.name = "pcm-burst";
  pcm.config.media = NvmType::kPcm;
  pcm.write_percent = 10;
  pcm.max_request = 32 * KiB;
  bases.push_back(pcm);
  for (const NvmType media : {NvmType::kMlc, NvmType::kTlc}) {
    TwinCase gc;
    gc.name = media == NvmType::kMlc ? "mlc-gc" : "tlc-gc";
    gc.config.media = media;
    gc.config.geometry.channels = 2;
    gc.config.geometry.packages_per_channel = 2;
    gc.config.geometry.dies_per_package = 2;
    gc.write_percent = 50;
    gc.write_span = MiB;
    // A few erase cohorts of slack; TLC blocks are three times MLC's.
    gc.preload = gc.config.geometry.capacity(timing_for(media)) -
                 (media == NvmType::kMlc ? 24 : 48) * MiB;
    bases.push_back(gc);
  }
  TwinCase faulty;
  faulty.name = "mlc-faults";
  faulty.config.media = NvmType::kMlc;
  faulty.config.fault.enabled = true;
  faulty.config.fault.rber = 4e-3;
  faulty.config.fault.channel_stalls.push_back({1, 200 * kMicrosecond, 300 * kMicrosecond});
  faulty.config.fault.stuck_dies.push_back({3, 1, 0, 2 * kMillisecond});
  faulty.write_percent = 20;
  bases.push_back(faulty);
  TwinCase buffered;
  buffered.name = "mlc-write-buffer";
  buffered.config.media = NvmType::kMlc;
  buffered.config.controller.write_buffer = 4 * MiB;
  buffered.write_percent = 60;
  bases.push_back(buffered);

  std::vector<TwinCase> cases;
  for (const TwinCase& base : bases) {
    for (const AllocationPolicy policy :
         {AllocationPolicy::kChannelPlaneDie, AllocationPolicy::kChannelDiePlane,
          AllocationPolicy::kDieChannelPlane}) {
      for (const bool backfill : {true, false}) {
        TwinCase c = base;
        c.config.geometry.policy = policy;
        c.config.controller.queue_backfill = backfill;
        cases.push_back(c);
      }
    }
  }
  return cases;
}

std::string controller_digest_path() {
  return std::string(NVMOOC_TEST_DATA_DIR) + "/golden/controller_digest.json";
}

// The byte-level oracle for the controller's scheduling and accounting:
// every RequestResult field of a seeded request stream and every
// ControllerStats field after it, per case, fingerprinted and pinned.
// Any change to a grant, a phase split, a PAL class or a reliability
// counter moves a digest.
TEST(Controller, MatchesGoldenDigest) {
  constexpr int kRequests = 400;
  obs::JsonWriter w;
  w.begin_object();
  for (const TwinCase& digest_case : digest_cases()) {
    const std::string name = std::string(digest_case.name) + "/" +
                             std::string(to_string(digest_case.config.geometry.policy)) +
                             (digest_case.config.controller.queue_backfill ? "/backfill"
                                                                           : "/fifo");
    SCOPED_TRACE(name);
    Ssd ssd(digest_case.config);
    ssd.preload(digest_case.preload);
    RequestStream stream(digest_case);
    Fingerprint f;
    StreamTally tally;
    Time arrival;
    for (int i = 0; i < kRequests; ++i) {
      const BlockRequest request = stream.next(arrival);
      ssd.advance_watermark(arrival);
      const RequestResult result = ssd.submit(request, arrival);
      fingerprint(f, result);
      tally.add(request, arrival, result);
    }
    const ControllerStats& stats = ssd.controller_stats();
    fingerprint(f, stats, tally);
    EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kRequests));
    if (digest_case.write_span > Bytes{}) {
      EXPECT_GT(ssd.ftl_stats().gc_runs, 0u);
    }
    if (digest_case.config.fault.enabled) {
      EXPECT_GT(stats.reliability.read_retries, 0u);
      EXPECT_GT(stats.reliability.channel_stalls, 0u);
      EXPECT_GT(stats.reliability.die_stuck_reads, 0u);
    }
    w.field(name, f.hex());
  }
  w.end_object();
  const std::string actual = w.str() + "\n";

  if (std::getenv("NVMOOC_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(controller_digest_path(), std::ios::binary);
    ASSERT_TRUE(out) << "cannot write " << controller_digest_path();
    out << actual;
    GTEST_SKIP() << "regenerated " << controller_digest_path();
  }
  std::ifstream in(controller_digest_path(), std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << controller_digest_path();
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual);
}

TEST(DeviceStats, WearAggregatesAcrossDies) {
  ControllerFixture f;
  f.ssd->submit({NvmOp::kWrite, Bytes{}, MiB, false, false}, Time{});
  const WearSummary wear = f.ssd->wear();
  EXPECT_EQ(wear.total_writes, MiB / (2 * KiB));
}

}  // namespace
}  // namespace nvmooc
