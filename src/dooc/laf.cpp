#include "dooc/laf.hpp"

#include <algorithm>
#include <vector>

namespace nvmooc {

void LafContext::migrate_in(const DataPool& pool, ArrayId array, Bytes offset) {
  const Bytes size = pool.size(array);
  std::vector<std::uint8_t> buffer(std::min(size, 8 * MiB).value());
  Bytes moved;
  while (moved < size) {
    const Bytes chunk = std::min(Bytes{buffer.size()}, size - moved);
    pool.read(array, moved, buffer.data(), chunk);
    storage_.write(offset + moved, buffer.data(), chunk);
    moved += chunk;
  }
}

ArrayId LafContext::migrate_out(DataPool& pool, Bytes offset, Bytes size,
                                std::uint32_t node) {
  const ArrayId array = pool.create(size, node);
  std::vector<std::uint8_t> buffer(std::min(size, 8 * MiB).value());
  Bytes moved;
  while (moved < size) {
    const Bytes chunk = std::min(Bytes{buffer.size()}, size - moved);
    storage_.read(offset + moved, buffer.data(), chunk);
    pool.write(array, moved, buffer.data(), chunk);
    moved += chunk;
  }
  pool.seal(array);
  return array;
}

}  // namespace nvmooc
