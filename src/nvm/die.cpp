#include "nvm/die.hpp"

#include <stdexcept>

namespace nvmooc {

Die::Die(const NvmTiming& timing, bool backfill) : timing_(timing) {
  planes_.reserve(timing_.planes_per_die);
  for (std::uint32_t p = 0; p < timing_.planes_per_die; ++p) {
    planes_.emplace_back(backfill);
  }
}

CellActivation Die::activate(std::uint32_t plane, NvmOp op, std::uint64_t block,
                             std::uint32_t cell_ops, Time earliest, Time duration) {
  if (plane >= planes_.size()) {
    throw std::out_of_range("Die::activate: plane index out of range");
  }
  const Reservation grant = planes_[plane].reserve(earliest, duration);

  // Wear accounting. The wear unit id folds plane and block together so a
  // die-wide tracker sees distinct units per plane.
  const std::uint64_t unit = block * timing_.planes_per_die + plane;
  switch (op) {
    case NvmOp::kErase:
      wear_.record_erase(unit);
      break;
    case NvmOp::kWrite:
      wear_.record_writes(cell_ops);
      break;
    case NvmOp::kRead:
      break;
  }

  CellActivation activation;
  activation.start = grant.start;
  activation.end = grant.end;
  activation.waited = grant.waited;
  return activation;
}

}  // namespace nvmooc
