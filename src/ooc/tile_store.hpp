// Storage abstraction for out-of-core data, with POSIX-level trace
// capture.
//
// The OoC operator stores the Hamiltonian's tiles through this interface
// and reads them back every iteration; a TracedStorage wrapper records
// each access as a PosixRequest — the compute-node POSIX trace of the
// paper's Section 4.2, produced here by actually running the solver.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"
#include "trace/trace.hpp"

namespace nvmooc {

/// Byte-addressed storage object (one DOoC immutable array / UFS object).
class Storage {
 public:
  virtual ~Storage() = default;
  virtual void read(Bytes offset, void* destination, Bytes size) = 0;
  virtual void write(Bytes offset, const void* source, Bytes size) = 0;
};

/// In-memory backing store.
class MemoryStorage : public Storage {
 public:
  explicit MemoryStorage(Bytes size) : data_(size.value(), 0) {}

  void read(Bytes offset, void* destination, Bytes size) override;
  void write(Bytes offset, const void* source, Bytes size) override;

 private:
  std::vector<std::uint8_t> data_;
};

/// Decorator that records every access into a Trace while delegating the
/// actual bytes to the wrapped storage.
class TracedStorage : public Storage {
 public:
  explicit TracedStorage(Storage& backing) : backing_(backing) {}

  void read(Bytes offset, void* destination, Bytes size) override;
  void write(Bytes offset, const void* source, Bytes size) override;

  const Trace& trace() const { return trace_; }
  Trace take_trace() { return std::move(trace_); }

 private:
  Storage& backing_;
  Trace trace_;
};

}  // namespace nvmooc
