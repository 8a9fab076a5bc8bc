// Small string helpers shared by the trace serialiser and table printers.
#pragma once

#include <string>

namespace nvmooc {

/// printf into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// "1234567" -> "1,234,567" for table readability.
std::string with_commas(long long value);

/// Human-readable sizes: 4096 -> "4KiB", 3221225472 -> "3GiB".
std::string human_bytes(unsigned long long bytes);

}  // namespace nvmooc
