// ASCII table renderer used by the benchmark binaries to print the
// paper-shaped tables (one per figure) after their per-cell timing lines.
#pragma once

#include <string>
#include <vector>

namespace nvmooc {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);

  /// Convenience: formats doubles with the given precision.
  void add_row_numeric(const std::string& label, const std::vector<double>& values,
                       int precision = 1);

  /// Renders with column alignment: first column left, rest right.
  std::string render() const;

  /// Renders and writes to stdout.
  void print() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace nvmooc
