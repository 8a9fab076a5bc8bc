// Test-only reference FTL: the std::map implementation that src/ssd/ftl.cpp
// replaced with flat tables, kept verbatim as a differential oracle (the
// incremental mapping audit, which only reports to an installed auditor,
// is left out). Same constructor, translate(), lookup(), retire_block(),
// stats(), wear_spread() and mapping_violations() as nvmooc::Ftl; every
// answer of the two must be equal on the same operation sequence.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ssd/ftl.hpp"

namespace nvmooc::reference {

class MapFtl {
 public:
  MapFtl(const SsdGeometry& geometry, const NvmTiming& timing, FtlConfig config = {});

  void set_preloaded(Bytes bytes);
  std::vector<UnitRun> translate(const BlockRequest& request);
  std::uint64_t lookup(std::uint64_t logical_unit) const;
  const FtlStats& stats() const { return stats_; }
  double wear_spread() const;
  [[nodiscard]] bool retire_block(std::uint64_t physical_unit, std::vector<UnitRun>& out);
  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] Bytes capacity_lost() const { return capacity_lost_units_ * timing_.page_size; }
  [[nodiscard]] bool is_bad_block(std::uint64_t physical_unit) const;
  std::vector<std::string> mapping_violations(std::size_t max_reports = 16) const;

 private:
  std::uint64_t block_key(const PhysicalAddress& address) const;
  PhysicalAddress block_address(std::uint64_t key) const;
  [[nodiscard]] bool block_holds_live_identity(std::uint64_t key) const;
  std::uint64_t allocate_unit(std::vector<UnitRun>& gc_out);
  void invalidate(std::uint64_t physical_unit);
  void collect_garbage(std::vector<UnitRun>& out);
  void append_read_runs(std::uint64_t first_logical, std::uint64_t count,
                        Bytes leading_trim, Bytes trailing_trim,
                        std::vector<UnitRun>& out);

  SsdGeometry geometry_;
  NvmTiming timing_;
  FtlConfig config_;

  std::uint64_t capacity_units_ = 0;
  std::uint64_t positions_ = 0;
  std::uint64_t preloaded_units_ = 0;
  std::uint64_t frontier_ = 0;

  std::map<std::uint64_t, std::uint64_t> overrides_;
  std::map<std::uint64_t, std::uint64_t> reverse_;
  std::map<std::uint64_t, std::uint32_t> valid_pages_;

  struct FreeBlock {
    PhysicalAddress base;
    std::uint32_t next_page = 0;
  };
  std::deque<FreeBlock> free_blocks_;
  std::set<std::uint64_t> bad_blocks_;
  std::uint64_t capacity_lost_units_ = 0;
  bool failed_ = false;
  bool in_gc_ = false;
  std::map<std::uint64_t, std::uint32_t> erase_counts_;

  FtlStats stats_;
};

inline MapFtl::MapFtl(const SsdGeometry& geometry, const NvmTiming& timing, FtlConfig config)
    : geometry_(geometry), timing_(timing), config_(config) {
  positions_ = geometry_.plane_positions(timing_);
  capacity_units_ = geometry_.capacity(timing_) / timing_.page_size;
}

inline void MapFtl::set_preloaded(Bytes bytes) {
  const std::uint64_t units = (bytes + timing_.page_size - Bytes{1}) / timing_.page_size;
  preloaded_units_ = std::min(units, capacity_units_);
  frontier_ = std::max(frontier_, preloaded_units_);
}

inline std::uint64_t MapFtl::lookup(std::uint64_t logical_unit) const {
  const auto it = overrides_.find(logical_unit);
  // Unwritten logical space reads identity: the simulator only models
  // timing, so aliasing between identity addresses and frontier
  // allocations is harmless (no payload exists to corrupt).
  return it == overrides_.end() ? logical_unit : it->second;
}

inline std::uint64_t MapFtl::block_key(const PhysicalAddress& address) const {
  const std::uint64_t position =
      ((static_cast<std::uint64_t>(address.channel) * geometry_.packages_per_channel +
        address.package) *
           geometry_.dies_per_package +
       address.die) *
          timing_.planes_per_die +
      address.plane;
  return position * timing_.blocks_per_plane + address.block;
}

inline PhysicalAddress MapFtl::block_address(std::uint64_t key) const {
  const std::uint64_t block = key % timing_.blocks_per_plane;
  std::uint64_t position = key / timing_.blocks_per_plane;
  PhysicalAddress base;
  base.plane = static_cast<std::uint32_t>(position % timing_.planes_per_die);
  position /= timing_.planes_per_die;
  base.die = static_cast<std::uint32_t>(position % geometry_.dies_per_package);
  position /= geometry_.dies_per_package;
  base.package = static_cast<std::uint32_t>(position % geometry_.packages_per_channel);
  base.channel = static_cast<std::uint32_t>(position / geometry_.packages_per_channel);
  base.block = block;
  base.page = 0;
  return base;
}

inline bool MapFtl::block_holds_live_identity(std::uint64_t key) const {
  if (preloaded_units_ == 0) return false;
  const std::uint64_t first = geometry_.unit_of(block_address(key), timing_);
  if (first >= preloaded_units_) return false;
  // Page p of the block sits `p` rows above page 0; the row stride in
  // unit space is the plane-position count under every allocation policy.
  for (std::uint32_t page = 0; page < timing_.pages_per_block; ++page) {
    const std::uint64_t unit = first + static_cast<std::uint64_t>(page) * positions_;
    if (unit >= preloaded_units_) break;
    if (overrides_.count(unit) == 0) return true;  // Identity page still live.
  }
  return false;
}

inline void MapFtl::invalidate(std::uint64_t physical_unit) {
  const auto it = reverse_.find(physical_unit);
  if (it == reverse_.end()) return;  // Identity (pre-loaded) data: untracked.
  reverse_.erase(it);
  const PhysicalAddress address = geometry_.map_unit(physical_unit, timing_);
  const auto valid_it = valid_pages_.find(block_key(address));
  if (valid_it != valid_pages_.end() && valid_it->second > 0) --valid_it->second;
}

inline double MapFtl::wear_spread() const {
  if (erase_counts_.empty()) return 1.0;
  std::uint32_t lo = ~0u;
  std::uint32_t hi = 0;
  for (const auto& [key, count] : erase_counts_) {
    lo = std::min(lo, count);
    hi = std::max(hi, count);
  }
  return lo > 0 ? static_cast<double>(hi) / lo : static_cast<double>(hi + 1);
}

inline std::uint64_t MapFtl::allocate_unit(std::vector<UnitRun>& gc_out) {
  // Prefer reclaimed blocks: pages program strictly in order within them.
  if (!free_blocks_.empty()) {
    // Wear-aware reuse: start the least-erased free block first.
    if (config_.wear_aware && free_blocks_.front().next_page == 0 &&
        free_blocks_.size() > 1) {
      auto least = free_blocks_.begin();
      for (auto it = free_blocks_.begin(); it != free_blocks_.end(); ++it) {
        if (it->next_page != 0) continue;  // Never abandon a partly-filled block.
        PhysicalAddress probe = it->base;
        probe.page = 0;
        PhysicalAddress best = least->base;
        best.page = 0;
        const auto wear_of = [&](const PhysicalAddress& a) {
          const auto found = erase_counts_.find(block_key(a));
          return found == erase_counts_.end() ? 0u : found->second;
        };
        if (least->next_page != 0 || wear_of(probe) < wear_of(best)) least = it;
      }
      if (least != free_blocks_.begin()) std::swap(*least, free_blocks_.front());
    }
    FreeBlock& fb = free_blocks_.front();
    PhysicalAddress address = fb.base;
    address.page = fb.next_page;
    const std::uint64_t unit = geometry_.unit_of(address, timing_);
    if (++fb.next_page >= timing_.pages_per_block) free_blocks_.pop_front();
    ++valid_pages_[block_key(address)];
    return unit;
  }

  const std::uint64_t cohort_units = positions_ * timing_.pages_per_block;
  if (frontier_ >= capacity_units_) {
    if (in_gc_) {
      throw std::runtime_error("Ftl: out of space while relocating during GC");
    }
    collect_garbage(gc_out);
    if (free_blocks_.empty()) {
      throw std::runtime_error("Ftl: device full and garbage collection found no victim");
    }
    return allocate_unit(gc_out);
  }

  // Proactive GC while headroom remains.
  if (!in_gc_ &&
      capacity_units_ - frontier_ <
          static_cast<std::uint64_t>(config_.gc_reserve_blocks) * cohort_units &&
      !valid_pages_.empty() && free_blocks_.empty()) {
    collect_garbage(gc_out);
  }

  // Frontier allocation, skipping retired blocks. Skipping can exhaust
  // the frontier, in which case the recursion above falls back to GC.
  while (frontier_ < capacity_units_) {
    const std::uint64_t unit = frontier_++;
    const PhysicalAddress address = geometry_.map_unit(unit, timing_);
    const std::uint64_t key = block_key(address);
    if (!bad_blocks_.empty() && bad_blocks_.count(key) > 0) continue;
    ++valid_pages_[key];
    return unit;
  }
  return allocate_unit(gc_out);
}

inline bool MapFtl::is_bad_block(std::uint64_t physical_unit) const {
  if (bad_blocks_.empty()) return false;
  const PhysicalAddress address = geometry_.map_unit(physical_unit, timing_);
  return bad_blocks_.count(block_key(address)) > 0;
}

inline bool MapFtl::retire_block(std::uint64_t physical_unit, std::vector<UnitRun>& out) {
  PhysicalAddress base = geometry_.map_unit(physical_unit, timing_);
  base.page = 0;
  const std::uint64_t key = block_key(base);
  if (bad_blocks_.count(key) > 0) return !failed_;  // Already retired.
  bad_blocks_.insert(key);
  ++stats_.retired_blocks;
  if (stats_.spare_blocks_used < config_.spare_blocks) {
    ++stats_.spare_blocks_used;
  } else {
    capacity_lost_units_ += timing_.pages_per_block;
    if (static_cast<double>(capacity_lost_units_) >
        config_.hard_failure_capacity_fraction * static_cast<double>(capacity_units_)) {
      failed_ = true;
    }
  }

  // Drop the block from the free list if it went bad between reclaim and
  // reuse (a partially-refilled free block is handled by the live-page
  // sweep below).
  for (auto it = free_blocks_.begin(); it != free_blocks_.end();) {
    PhysicalAddress candidate = it->base;
    candidate.page = 0;
    it = block_key(candidate) == key ? free_blocks_.erase(it) : std::next(it);
  }

  // Relocate the block's live pages. The other pages are still readable
  // (one page failed, not the whole block); the failed page itself has no
  // readable source, so it is rewritten only — its content arrives from
  // the replica fetched by the layer above.
  for (std::uint32_t page = 0; page < timing_.pages_per_block; ++page) {
    PhysicalAddress address = base;
    address.page = page;
    const std::uint64_t physical = geometry_.unit_of(address, timing_);
    std::uint64_t logical = 0;
    const auto live = reverse_.find(physical);
    if (live != reverse_.end()) {
      logical = live->second;
      reverse_.erase(live);
    } else if (physical < preloaded_units_ && overrides_.count(physical) == 0) {
      logical = physical;  // Identity-mapped pre-loaded data.
    } else {
      continue;  // Dead or never-written page: nothing to move.
    }
    if (physical != physical_unit) {
      out.push_back({NvmOp::kRead, physical, 1, timing_.page_size, /*gc=*/true});
    }
    const std::uint64_t fresh = allocate_unit(out);
    overrides_[logical] = fresh;
    reverse_[fresh] = logical;
    out.push_back({NvmOp::kWrite, fresh, 1, timing_.page_size, /*gc=*/true});
    ++stats_.remap_relocated_pages;
  }
  valid_pages_.erase(key);
  return !failed_;
}

inline void MapFtl::collect_garbage(std::vector<UnitRun>& out) {
  // Greedy victim: fewest valid pages among fully-programmed frontier
  // blocks. Blocks still being filled (the frontier cohort) are excluded
  // by requiring the block to sit strictly below the frontier cohort.
  const std::uint64_t frontier_row = frontier_ / positions_;
  const std::uint64_t frontier_block = frontier_row / timing_.pages_per_block;

  std::uint64_t victim_key = 0;
  std::uint32_t victim_valid = std::numeric_limits<std::uint32_t>::max();
  std::uint32_t victim_wear = std::numeric_limits<std::uint32_t>::max();
  bool found = false;
  for (const auto& [key, valid] : valid_pages_) {
    const std::uint64_t block = key % timing_.blocks_per_plane;
    if (block >= frontier_block && frontier_ < capacity_units_) continue;
    if (!bad_blocks_.empty() && bad_blocks_.count(key) > 0) continue;
    // A block straddling the pre-load boundary can hold identity-mapped
    // pages the valid-page table never counted (only frontier
    // allocations are tracked). Erasing it would destroy live data the
    // relocation sweep below (reverse_-driven) cannot see, leaving later
    // writes free to re-allocate those units and alias live logicals.
    if (block_holds_live_identity(key)) continue;
    std::uint32_t wear = 0;
    if (config_.wear_aware) {
      const auto it = erase_counts_.find(key);
      wear = it == erase_counts_.end() ? 0 : it->second;
    }
    // Fewest valid pages first; wear-aware ties break toward the
    // least-erased block.
    const bool better =
        valid < victim_valid || (valid == victim_valid && wear < victim_wear);
    if (better) {
      victim_valid = valid;
      victim_wear = wear;
      victim_key = key;
      found = true;
    }
  }
  if (!found || victim_valid >= timing_.pages_per_block) return;  // Nothing reclaimable.

  ++stats_.gc_runs;
  in_gc_ = true;

  const PhysicalAddress base = block_address(victim_key);

  // Relocate live pages.
  for (std::uint32_t page = 0; page < timing_.pages_per_block; ++page) {
    PhysicalAddress address = base;
    address.page = page;
    const std::uint64_t physical = geometry_.unit_of(address, timing_);
    const auto live = reverse_.find(physical);
    if (live == reverse_.end()) continue;
    const std::uint64_t logical = live->second;
    out.push_back({NvmOp::kRead, physical, 1, timing_.page_size, /*gc=*/true});
    reverse_.erase(live);
    auto valid_it = valid_pages_.find(victim_key);
    if (valid_it != valid_pages_.end() && valid_it->second > 0) --valid_it->second;

    const std::uint64_t fresh = allocate_unit(out);
    overrides_[logical] = fresh;
    reverse_[fresh] = logical;
    out.push_back({NvmOp::kWrite, fresh, 1, timing_.page_size, /*gc=*/true});
    ++stats_.gc_relocated_pages;
  }

  // Erase and recycle.
  PhysicalAddress first_page = base;
  first_page.page = 0;
  out.push_back({NvmOp::kErase, geometry_.unit_of(first_page, timing_), 1, Bytes{}, /*gc=*/true});
  valid_pages_.erase(victim_key);
  free_blocks_.push_back({base, 0});
  ++stats_.gc_erased_blocks;
  ++erase_counts_[victim_key];
  in_gc_ = false;
}

inline void MapFtl::append_read_runs(std::uint64_t first_logical, std::uint64_t count,
                           Bytes leading_trim, Bytes trailing_trim,
                           std::vector<UnitRun>& out) {
  const std::uint64_t last_logical = first_logical + count;  // exclusive
  auto run_bytes = [&](std::uint64_t run_first, std::uint64_t run_count) {
    Bytes bytes = run_count * timing_.page_size;
    if (run_first == first_logical) bytes -= leading_trim;
    if (run_first + run_count == last_logical) bytes -= trailing_trim;
    return bytes;
  };

  std::uint64_t cursor = first_logical;
  auto next_override = overrides_.lower_bound(first_logical);
  while (cursor < last_logical) {
    if (next_override != overrides_.end() && next_override->first < last_logical) {
      // Identity span before the override, if any.
      if (next_override->first > cursor) {
        const std::uint64_t span = next_override->first - cursor;
        out.push_back({NvmOp::kRead, cursor, span, run_bytes(cursor, span), false});
        cursor += span;
      }
      // Consecutive overrides with consecutive physicals merge.
      std::uint64_t run_first_phys = next_override->second;
      std::uint64_t run_first_logical = cursor;
      std::uint64_t run_count = 0;
      while (next_override != overrides_.end() && next_override->first == cursor &&
             cursor < last_logical &&
             next_override->second == run_first_phys + run_count) {
        ++run_count;
        ++cursor;
        ++next_override;
      }
      out.push_back({NvmOp::kRead, run_first_phys, run_count,
                     run_bytes(run_first_logical, run_count), false});
    } else {
      const std::uint64_t span = last_logical - cursor;
      out.push_back({NvmOp::kRead, cursor, span, run_bytes(cursor, span), false});
      cursor += span;
    }
  }
}

inline std::vector<UnitRun> MapFtl::translate(const BlockRequest& request) {
  std::vector<UnitRun> out;
  if (request.size == Bytes{}) return out;
  const Bytes page = timing_.page_size;
  const std::uint64_t first_logical = request.offset / page;
  const std::uint64_t last_logical = (request.offset + request.size - Bytes{1}) / page;
  const std::uint64_t count = last_logical - first_logical + 1;
  const Bytes leading_trim = request.offset % page;
  const Bytes trailing_trim = (last_logical + 1) * page - (request.offset + request.size);

  switch (request.op) {
    case NvmOp::kRead: {
      ++stats_.reads;
      append_read_runs(first_logical, count, leading_trim, trailing_trim, out);
      break;
    }
    case NvmOp::kWrite: {
      ++stats_.writes;
      // Partial edge pages of data that already exists require
      // read-modify-write: fetch the old page before programming the new.
      auto needs_rmw = [&](std::uint64_t logical, bool partial) {
        return partial && (logical < preloaded_units_ || overrides_.count(logical) > 0);
      };
      if (needs_rmw(first_logical, leading_trim != Bytes{})) {
        out.push_back({NvmOp::kRead, lookup(first_logical), 1, page, false});
        ++stats_.read_modify_writes;
      }
      if (last_logical != first_logical && needs_rmw(last_logical, trailing_trim != Bytes{})) {
        out.push_back({NvmOp::kRead, lookup(last_logical), 1, page, false});
        ++stats_.read_modify_writes;
      }

      std::vector<UnitRun> gc_traffic;
      std::uint64_t run_first = 0;
      std::uint64_t run_count = 0;
      for (std::uint64_t logical = first_logical; logical <= last_logical; ++logical) {
        const auto existing = overrides_.find(logical);
        if (existing != overrides_.end()) {
          invalidate(existing->second);
        } else if (logical < preloaded_units_) {
          invalidate(logical);  // No-op for untracked identity pages.
        }
        const std::uint64_t fresh = allocate_unit(gc_traffic);
            overrides_[logical] = fresh;
        reverse_[fresh] = logical;
        if (run_count > 0 && fresh == run_first + run_count) {
          ++run_count;
        } else {
          if (run_count > 0) {
            out.push_back({NvmOp::kWrite, run_first, run_count, run_count * page, false});
          }
          run_first = fresh;
          run_count = 1;
        }
      }
      if (run_count > 0) {
        out.push_back({NvmOp::kWrite, run_first, run_count, run_count * page, false});
      }
      out.insert(out.end(), gc_traffic.begin(), gc_traffic.end());
      break;
    }
    case NvmOp::kErase:
      // File systems never issue raw erases; erase traffic originates in
      // garbage collection. Ignore defensively.
      break;
  }
  return out;
}

inline std::vector<std::string> MapFtl::mapping_violations(std::size_t max_reports) const {
  std::vector<std::string> out;
  const auto report = [&](std::uint64_t a, std::uint64_t b, const char* what) {
    if (out.size() >= max_reports) return;
    std::ostringstream msg;
    msg << "mapping " << a << " -> " << b << ": " << what;
    out.push_back(msg.str());
  };

  // overrides_ and reverse_ must be exact inverses. Since overrides_ is
  // a map (one physical per logical), the inverse relation existing and
  // agreeing is precisely injectivity of the live mapping.
  for (const auto& [logical, physical] : overrides_) {
    const auto rev = reverse_.find(physical);
    if (rev == reverse_.end()) {
      report(logical, physical, "no reverse entry (injectivity untracked)");
    } else if (rev->second != logical) {
      report(logical, physical, "reverse entry names a different logical");
    }
    if (is_bad_block(physical)) {
      report(logical, physical, "live mapping targets a retired bad block");
    }
    if (physical >= capacity_units_) {
      report(logical, physical, "physical unit beyond device capacity");
    }
    if (physical < preloaded_units_ && physical != logical &&
        overrides_.count(physical) == 0) {
      report(logical, physical, "aliases a live pre-loaded identity unit");
    }
  }
  for (const auto& [physical, logical] : reverse_) {
    const auto fwd = overrides_.find(logical);
    if (fwd == overrides_.end() || fwd->second != physical) {
      report(logical, physical, "stale reverse entry not backed by an override");
    }
  }
  // Identity-mapped pre-loaded pages are live too: they must not sit on
  // blocks that have been retired (retire_block relocates them).
  for (const auto bad : bad_blocks_) {
    const std::uint64_t first = geometry_.unit_of(block_address(bad), timing_);
    for (std::uint32_t page = 0; page < timing_.pages_per_block; ++page) {
      const std::uint64_t unit = first + static_cast<std::uint64_t>(page) * positions_;
      if (unit >= preloaded_units_) break;
      if (overrides_.count(unit) == 0) {
        report(unit, unit, "live identity page left on a retired bad block");
      }
    }
  }
  return out;
}

}  // namespace nvmooc::reference
