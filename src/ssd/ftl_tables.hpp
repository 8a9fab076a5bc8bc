// The FTL's per-page tables (src/ssd/ftl.hpp), kept flat. The write path
// touches each of them once or twice per written page, so a tree walk and
// a node allocation per page would be most of the FTL's cost.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace nvmooc {

/// A sparse map from unit index to unit index, stored as fixed-size
/// leaves of consecutive keys. The leaves sit in a vector ordered by leaf
/// number and the last leaf found is cached, so get, set and erase on
/// nearby keys are an array access. A leaf leaves the index when its last
/// key is erased; the table keeps one such leaf as a spare, so a key that
/// empties and refills its leaf (one page rewritten over and over)
/// allocates nothing. An empty table owns no memory. Lookups update the
/// cache, so even const use belongs to one thread (each replay owns its
/// FTL).
class PageTable {
 public:
  /// What get() and erase() return for a key that is not present. No
  /// value is this: physical units are below the device capacity, and
  /// logical units below 2^64 / page size.
  static constexpr std::uint64_t kAbsent = ~std::uint64_t{0};

  [[nodiscard]] std::uint64_t get(std::uint64_t key) const {
    const Leaf* leaf = find(key >> kLeafBits);
    return leaf == nullptr ? kAbsent : leaf->values[key & kLeafMask];
  }
  [[nodiscard]] bool contains(std::uint64_t key) const { return get(key) != kAbsent; }

  void set(std::uint64_t key, std::uint64_t value) {
    Leaf& leaf = find_or_add(key >> kLeafBits);
    std::uint64_t& slot = leaf.values[key & kLeafMask];
    if (slot == kAbsent) ++leaf.live;
    slot = value;
  }

  /// Removes `key` and returns the value it had, or kAbsent.
  std::uint64_t erase(std::uint64_t key) {
    Leaf* leaf = find(key >> kLeafBits);
    if (leaf == nullptr) return kAbsent;
    std::uint64_t& slot = leaf->values[key & kLeafMask];
    const std::uint64_t old = slot;
    if (old == kAbsent) return kAbsent;
    slot = kAbsent;
    if (--leaf->live == 0) drop(key >> kLeafBits);
    return old;
  }

  /// The first present key at or above `key`, with its value; a pair of
  /// kAbsent when there is none.
  [[nodiscard]] std::pair<std::uint64_t, std::uint64_t> lower_bound(std::uint64_t key) const {
    const std::uint64_t id = key >> kLeafBits;
    for (auto it = position(leaves_, id); it != leaves_.end(); ++it) {
      const Leaf& leaf = *it->leaf;
      for (std::uint64_t i = it->id == id ? key & kLeafMask : 0; i < kLeafKeys; ++i) {
        if (leaf.values[i] != kAbsent) return {(it->id << kLeafBits) | i, leaf.values[i]};
      }
    }
    return {kAbsent, kAbsent};
  }

  /// Calls f(key, value) for every present key, in ascending key order.
  template <class F>
  void for_each(F&& f) const {
    for (const Entry& entry : leaves_) {
      for (std::uint64_t i = 0; i < kLeafKeys; ++i) {
        const std::uint64_t value = entry.leaf->values[i];
        if (value != kAbsent) f((entry.id << kLeafBits) | i, value);
      }
    }
  }

 private:
  static constexpr unsigned kLeafBits = 9;
  static constexpr std::uint64_t kLeafKeys = std::uint64_t{1} << kLeafBits;
  static constexpr std::uint64_t kLeafMask = kLeafKeys - 1;

  struct Leaf {
    Leaf() { values.fill(kAbsent); }
    std::array<std::uint64_t, kLeafKeys> values;
    std::uint32_t live = 0;  ///< Present keys; a leaf in the index has one.
  };
  struct Entry {
    std::uint64_t id;  ///< Key >> kLeafBits.
    std::unique_ptr<Leaf> leaf;
  };

  /// The first leaf of `leaves` whose id is at least `id`.
  template <class Leaves>
  static auto position(Leaves& leaves, std::uint64_t id) -> decltype(leaves.begin()) {
    return std::lower_bound(leaves.begin(), leaves.end(), id,
                            [](const Entry& entry, std::uint64_t v) { return entry.id < v; });
  }

  Leaf* find(std::uint64_t id) const {
    if (id == cached_id_) return cached_;
    const auto it = position(leaves_, id);
    if (it == leaves_.end() || it->id != id) return nullptr;
    cached_id_ = id;
    cached_ = it->leaf.get();
    return cached_;
  }

  Leaf& find_or_add(std::uint64_t id) {
    if (Leaf* leaf = find(id)) return *leaf;
    std::unique_ptr<Leaf> leaf = spare_ ? std::move(spare_) : std::make_unique<Leaf>();
    cached_id_ = id;
    cached_ = leaf.get();
    leaves_.insert(position(leaves_, id), Entry{id, std::move(leaf)});
    return *cached_;
  }

  /// Takes the emptied leaf `id` out of the index (its values are all
  /// kAbsent again, so it can serve as the spare as it is).
  void drop(std::uint64_t id) {
    const auto it = position(leaves_, id);
    if (!spare_) spare_ = std::move(it->leaf);
    leaves_.erase(it);
    if (cached_id_ == id) {
      cached_id_ = kAbsent;
      cached_ = nullptr;
    }
  }

  std::vector<Entry> leaves_;  ///< Ordered by id; every leaf holds a key.
  std::unique_ptr<Leaf> spare_;
  mutable std::uint64_t cached_id_ = kAbsent;
  mutable Leaf* cached_ = nullptr;
};

/// Block key -> count, by open addressing with linear probing. A key that
/// was erased is absent, which is not the same as a count of 0. The slot
/// array is allocated on the first insert. for_each() visits keys in an
/// order that depends on the hash, so whatever a caller folds over it must
/// not depend on the order.
class BlockCounts {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// The count of `key`, inserted as 0 when absent.
  std::uint32_t& operator[](std::uint64_t key) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    std::size_t i = home(key);
    for (; slots_[i].key != kEmpty; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return slots_[i].count;
    }
    slots_[i] = {key, 0};
    ++size_;
    return slots_[i].count;
  }

  /// The count of `key`, or null when absent. Valid until the next insert.
  std::uint32_t* find(std::uint64_t key) {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      if (slots_[i].key == key) return &slots_[i].count;
      if (slots_[i].key == kEmpty) return nullptr;
    }
  }

  void erase(std::uint64_t key) {
    if (size_ == 0) return;
    std::size_t hole = home(key);
    for (; slots_[hole].key != key; hole = (hole + 1) & mask_) {
      if (slots_[hole].key == kEmpty) return;
    }
    // Backward-shift deletion: pull later keys of the probe run into the
    // hole unless that would move one before its home slot.
    for (std::size_t j = (hole + 1) & mask_; slots_[j].key != kEmpty; j = (j + 1) & mask_) {
      if (((j - home(slots_[j].key)) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].key = kEmpty;
    --size_;
  }

  /// Calls f(key, count) for every key, in hash order.
  template <class F>
  void for_each(F&& f) const {
    for (const Slot& slot : slots_) {
      if (slot.key != kEmpty) f(slot.key, slot.count);
    }
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  struct Slot {
    std::uint64_t key = kEmpty;
    std::uint32_t count = 0;
  };

  [[nodiscard]] std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void grow() {
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(std::max<std::size_t>(
                                                      16, 2 * slots_.size())));
    mask_ = slots_.size() - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
    for (const Slot& slot : old) {
      if (slot.key == kEmpty) continue;
      std::size_t i = home(slot.key);
      while (slots_[i].key != kEmpty) i = (i + 1) & mask_;
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;  ///< Power-of-two size, at most half full.
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 64;
};

}  // namespace nvmooc
