#include "common/string_util.hpp"

#include <cstdarg>
#include <cstdio>

namespace nvmooc {

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (needed < 0) {
    va_end(args_copy);
    return {};
  }
  std::string out(static_cast<std::size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

std::string with_commas(long long value) {
  const bool negative = value < 0;
  unsigned long long magnitude =
      negative ? 0ULL - static_cast<unsigned long long>(value)
               : static_cast<unsigned long long>(value);
  std::string digits = std::to_string(magnitude);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3 + 1);
  int run = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (run == 3) {
      out += ',';
      run = 0;
    }
    out += *it;
    ++run;
  }
  if (negative) out += '-';
  return std::string(out.rbegin(), out.rend());
}

std::string human_bytes(unsigned long long bytes) {
  static const char* suffixes[] = {"B", "KiB", "MiB", "GiB", "TiB", "PiB"};
  std::size_t tier = 0;
  unsigned long long value = bytes;
  while (value >= 1024 && tier + 1 < sizeof(suffixes) / sizeof(suffixes[0]) &&
         value % 1024 == 0) {
    value /= 1024;
    ++tier;
  }
  if (value >= 10240) {  // Non-multiple sizes: fall back to one decimal.
    double scaled = static_cast<double>(bytes);
    tier = 0;
    while (scaled >= 1024.0 && tier + 1 < sizeof(suffixes) / sizeof(suffixes[0])) {
      scaled /= 1024.0;
      ++tier;
    }
    return format("%.1f%s", scaled, suffixes[tier]);
  }
  return format("%llu%s", value, suffixes[tier]);
}

}  // namespace nvmooc
