// Package model: a set of dies behind one chip-enable, sharing the
// package's port onto the channel.
//
// The "flash bus" phase of a transaction (register <-> channel pads, the
// paper's "Flash-Bus Activation" category) occupies the package port; the
// subsequent "channel bus" phase occupies the channel shared by all
// packages (modelled in src/ssd). Keeping these as separate resources is
// what lets transfers pipeline: while package A drives the channel,
// package B can stage its next page onto its pads. The controller
// reserves the port for as long as the channel transfer takes, at the
// device's bus rate.
#pragma once

#include <cstdint>
#include <vector>

#include "nvm/die.hpp"
#include "sim/timeline.hpp"

namespace nvmooc {

class Package {
 public:
  Package(const NvmTiming& timing, std::uint32_t dies, bool backfill);

  Die& die(std::uint32_t index) { return dies_.at(index); }
  const Die& die(std::uint32_t index) const { return dies_.at(index); }
  std::uint32_t die_count() const { return static_cast<std::uint32_t>(dies_.size()); }

  Timeline& flash_bus() { return flash_bus_; }
  const Timeline& flash_bus() const { return flash_bus_; }

 private:
  Timeline flash_bus_;
  std::vector<Die> dies_;
};

}  // namespace nvmooc
