#include "nvm/package.hpp"

namespace nvmooc {

Package::Package(const NvmTiming& timing, std::uint32_t dies, bool backfill)
    : flash_bus_(backfill) {
  dies_.reserve(dies);
  for (std::uint32_t d = 0; d < dies; ++d) {
    dies_.emplace_back(timing, backfill);
  }
}

}  // namespace nvmooc
