// Figure 1 — "Trend of bandwidth over time for real-world high-performance
// networks versus various NVM storage solutions."
//
// Prints the historical points, the model-derived future expectations, and
// the fitted doubling periods that quantify "NVM is outpacing networks".
#include <algorithm>

#include "bench_common.hpp"
#include "common/string_util.hpp"
#include "interconnect/trends.hpp"

namespace {

using nvmooc::TrendCategory;
using nvmooc::TrendPoint;

const char* category_name(TrendCategory category) {
  switch (category) {
    case TrendCategory::kNetwork: return "network";
    case TrendCategory::kFlashSsd: return "flash-SSD";
    case TrendCategory::kNonFlashSsd: return "nonflash-NVM";
    case TrendCategory::kFutureExpectation: return "expectation";
  }
  return "?";
}

/// Prints the trend table and the fitted doubling periods.
void report() {
  auto points = nvmooc::historical_trend_points();
  const auto projected = nvmooc::projected_trend_points();
  points.insert(points.end(), projected.begin(), projected.end());
  std::sort(points.begin(), points.end(),
            [](const TrendPoint& a, const TrendPoint& b) { return a.year < b.year; });

  std::printf("\n== Figure 1: Bandwidth per channel over time (GB/s) ==\n");
  nvmooc::Table table({"Year", "Device", "Category", "GB/s per channel"});
  for (const TrendPoint& point : points) {
    table.add_row({std::to_string(point.year), point.device, category_name(point.category),
                   nvmooc::format("%.4g", point.gbytes_per_sec_per_channel)});
  }
  table.print();

  const double network_years =
      nvmooc::doubling_period_years(points, TrendCategory::kNetwork);
  const double flash_years = nvmooc::doubling_period_years(points, TrendCategory::kFlashSsd);
  std::printf(
      "\nFitted doubling periods: networks every %.1f years, flash SSDs every %.1f\n"
      "years — NVM bandwidth outpaces point-to-point network capacity (the paper's\n"
      "motivating claim).\n",
      network_years, flash_years);
}

}  // namespace

int main(int argc, char** argv) {
  nvmooc::bench::Bench bench(argc, argv, nvmooc::bench::Flags::kNone);
  return bench.finish(report);
}
