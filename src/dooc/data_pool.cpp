#include "dooc/data_pool.hpp"

#include <cstring>
#include <stdexcept>

namespace nvmooc {

ArrayId DataPool::create(Bytes size, std::uint32_t node) {
  auto array = std::make_shared<Array>();
  array->bytes.assign(size.value(), 0);
  array->node = node;
  std::lock_guard<std::mutex> lock(registry_mutex_);
  const ArrayId id = next_id_++;
  arrays_.emplace(id, std::move(array));
  return id;
}

std::shared_ptr<DataPool::Array> DataPool::get(ArrayId id) const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  const auto it = arrays_.find(id);
  if (it == arrays_.end()) throw std::out_of_range("DataPool: unknown array");
  return it->second;
}

void DataPool::write(ArrayId id, Bytes offset, const void* data, Bytes size) {
  const auto array = get(id);
  if (array->sealed.load(std::memory_order_acquire)) {
    throw std::logic_error("DataPool::write: array is sealed (immutable)");
  }
  if (offset + size > Bytes{array->bytes.size()}) {
    throw std::out_of_range("DataPool::write: range beyond array");
  }
  std::lock_guard<std::mutex> lock(array->write_mutex);
  std::memcpy(array->bytes.data() + offset.value(), data, size.value());
}

void DataPool::seal(ArrayId id) {
  get(id)->sealed.store(true, std::memory_order_release);
}

void DataPool::read(ArrayId id, Bytes offset, void* destination, Bytes size) const {
  const auto array = get(id);
  if (!array->sealed.load(std::memory_order_acquire)) {
    throw std::logic_error("DataPool::read: array not sealed yet");
  }
  if (offset + size > Bytes{array->bytes.size()}) {
    throw std::out_of_range("DataPool::read: range beyond array");
  }
  std::memcpy(destination, array->bytes.data() + offset.value(), size.value());
}

bool DataPool::is_sealed(ArrayId id) const {
  return get(id)->sealed.load(std::memory_order_acquire);
}

Bytes DataPool::size(ArrayId id) const { return Bytes{get(id)->bytes.size()}; }

std::uint32_t DataPool::node_of(ArrayId id) const { return get(id)->node; }

}  // namespace nvmooc
