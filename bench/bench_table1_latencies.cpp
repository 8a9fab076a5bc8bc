// Table 1 — "Latency comparison to complete various page-size operations
// for each of the NVM types we consider."
//
// Rather than echoing constants, this bench reads the operation latencies
// off the cell model (NvmTiming's per-page functions, over every page
// position of a block) and prints them next to the paper's quoted values,
// so any drift between model and paper is visible.
#include "bench_common.hpp"
#include "common/string_util.hpp"
#include "nvm/timing.hpp"

namespace {

using namespace nvmooc;

struct MeasuredLatencies {
  Time read_min, read_max;
  Time write_min, write_max;
  Time erase;
};

MeasuredLatencies measure(NvmType type) {
  const NvmTiming timing = timing_for(type);
  MeasuredLatencies out;
  out.read_min = out.write_min = kSecond;
  for (std::uint32_t page = 0; page < timing.pages_per_block; ++page) {
    const Time read = timing.read_time_for_page(page);
    out.read_min = std::min(out.read_min, read);
    out.read_max = std::max(out.read_max, read);
    const Time write = timing.write_time_for_page(page);
    out.write_min = std::min(out.write_min, write);
    out.write_max = std::max(out.write_max, write);
  }
  out.erase = timing.erase_time;
  return out;
}

std::string span_us(Time lo, Time hi) {
  if (lo == hi) return format("%.3g", static_cast<double>(lo) / static_cast<double>(kMicrosecond));
  return format("%.3g-%.3g", static_cast<double>(lo) / static_cast<double>(kMicrosecond),
                static_cast<double>(hi) / static_cast<double>(kMicrosecond));
}

/// Prints Table 1 from the cell model of every medium.
void report() {
  std::printf("\n== Table 1: measured page-size operation latencies (us) ==\n");
  Table table({"", "SLC", "MLC", "TLC", "PCM"});
  std::vector<std::string> page_row = {"Page Size"};
  std::vector<std::string> read_row = {"Read (us)"};
  std::vector<std::string> write_row = {"Write (us)"};
  std::vector<std::string> erase_row = {"Erase (us)"};
  for (NvmType type : kAllNvmTypes) {
    const NvmTiming timing = timing_for(type);
    const MeasuredLatencies m = measure(type);
    page_row.push_back(human_bytes(timing.page_size.value()));
    read_row.push_back(span_us(m.read_min, m.read_max));
    write_row.push_back(span_us(m.write_min, m.write_max));
    erase_row.push_back(span_us(m.erase, m.erase));
  }
  table.add_row(page_row);
  table.add_row(read_row);
  table.add_row(write_row);
  table.add_row(erase_row);
  table.print();

  std::printf(
      "\nPaper values: SLC 2kB/25/250/1500, MLC 4kB/50/250-2200/2500,\n"
      "TLC 8kB/150/440-6000/3000, PCM 64B/0.115-0.135/35/35 (read variation on TLC\n"
      "reflects NANDFlashSim's intrinsic page-position latency model).\n");
}

}  // namespace

int main(int argc, char** argv) {
  nvmooc::bench::Bench bench(argc, argv, nvmooc::bench::Flags::kNone);
  return bench.finish(report);
}
