// Die model: the smallest independently-operating NVM unit.
//
// A die has `planes_per_die` planes; each plane executes one cell
// activation (read/program/erase) at a time. Multi-plane commands are
// modelled by the controller issuing per-plane activations with the same
// earliest-start; interleaving across dies falls out of each die having
// its own plane timelines.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "nvm/timing.hpp"
#include "nvm/wear.hpp"
#include "sim/timeline.hpp"

namespace nvmooc {

/// Result of one cell activation on a plane.
struct CellActivation {
  Time start;   ///< When the cells actually begin the operation.
  Time end;     ///< When the operation finishes.
  Time waited;  ///< Cell contention: start - earliest.
};

class Die {
 public:
  Die(const NvmTiming& timing, bool backfill);

  /// Reserves `cell_ops` back-to-back cell activations of `op` on `plane`
  /// for `duration`, no earlier than `earliest`. `cell_ops > 1` models
  /// controllers streaming bursts of small PCM lines under a single
  /// command. The caller sizes `duration`: the activations' nominal time
  /// (CellTimeTable::run_time, the sum of NvmTiming's per-page latencies)
  /// plus any extra occupancy — read-retry ladder steps sense with finer
  /// reference levels and hold the plane longer. Wear is recorded per
  /// block (NAND erase) or per page written.
  CellActivation activate(std::uint32_t plane, NvmOp op, std::uint64_t block,
                          std::uint32_t cell_ops, Time earliest, Time duration);

  const NvmTiming& timing() const { return timing_; }
  std::uint32_t plane_count() const { return timing_.planes_per_die; }

  /// A plane's cell-activation timeline; the device folds and unions
  /// their busy time (Ssd::device_stats).
  Timeline& plane(std::uint32_t index) { return planes_.at(index); }
  const Timeline& plane(std::uint32_t index) const { return planes_.at(index); }
  const WearTracker& wear() const { return wear_; }

 private:
  NvmTiming timing_;
  std::vector<Timeline> planes_;
  WearTracker wear_;
};

}  // namespace nvmooc
