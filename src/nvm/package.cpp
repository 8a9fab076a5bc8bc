#include "nvm/package.hpp"

namespace nvmooc {

Package::Package(const NvmTiming& timing, const BusConfig& bus, std::uint32_t dies,
                 bool backfill)
    : bus_(bus), flash_bus_(backfill) {
  dies_.reserve(dies);
  for (std::uint32_t d = 0; d < dies; ++d) {
    dies_.emplace_back(timing, backfill);
  }
}

Reservation Package::reserve_flash_bus(Time earliest, Bytes bytes) {
  return flash_bus_.reserve(earliest, bus_.transfer_time(bytes));
}

void Package::reset() {
  flash_bus_.reset();
  for (Die& die : dies_) die.reset();
}

}  // namespace nvmooc
