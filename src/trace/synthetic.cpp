#include "trace/synthetic.hpp"

namespace nvmooc {

Trace sequential_read_trace(Bytes total, Bytes request_size) {
  Trace trace;
  for (Bytes offset; offset < total; offset += request_size) {
    trace.add(NvmOp::kRead, offset, std::min(request_size, total - offset));
  }
  return trace;
}

Trace random_read_trace(Bytes extent, Bytes request_size, std::size_t count, Rng& rng) {
  Trace trace;
  const Bytes slots = extent > request_size ? (extent - request_size) : Bytes{1};
  for (std::size_t i = 0; i < count; ++i) {
    const Bytes offset{rng.next_below(slots.value())};
    trace.add(NvmOp::kRead, offset, request_size);
  }
  return trace;
}

Trace strided_read_trace(Bytes extent, Bytes request_size, Bytes stride, std::size_t count) {
  Trace trace;
  Bytes offset;
  for (std::size_t i = 0; i < count; ++i) {
    trace.add(NvmOp::kRead, offset, request_size);
    offset += stride;
    if (offset + request_size > extent) offset %= (stride != Bytes{} ? stride : Bytes{1});
  }
  return trace;
}

}  // namespace nvmooc
