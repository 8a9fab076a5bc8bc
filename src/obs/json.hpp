// Minimal JSON support for the observability layer: a streaming writer
// used by every machine-readable export (Chrome traces, metrics dumps,
// ExperimentResult::to_json, BENCH_*.json), and a small recursive-descent
// parser used by tests and tooling to validate those exports round-trip.
// Deliberately tiny — no external dependency, no DOM mutation API.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace nvmooc::obs {

/// Escapes `text` for inclusion inside a JSON string literal (quotes not
/// included).
std::string json_escape(const std::string& text);

/// Renders a double the way JSON expects: finite values in shortest
/// round-trip form, NaN/Inf as 0 (JSON has no spelling for them).
std::string json_number(double value);

/// Streaming JSON writer with automatic comma placement. Usage:
///   JsonWriter w;
///   w.begin_object();
///   w.key("name"); w.value("CNL-UFS");
///   w.key("phases"); w.begin_array(); w.value(0.25); ... w.end_array();
///   w.end_object();
///   std::string out = w.take();
class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  void key(const std::string& name);

  void value(const std::string& text);
  void value(const char* text);
  void value(double number);
  void value(std::int64_t number);
  void value(std::uint64_t number);
  void value(bool flag);
  /// Splices pre-rendered JSON verbatim (caller guarantees validity).
  void raw(const std::string& json);

  /// Convenience: key + scalar in one call.
  template <typename T>
  void field(const std::string& name, const T& v) {
    key(name);
    value(v);
  }

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }

 private:
  void separate();

  std::string out_;
  /// One entry per open scope: true once the scope has a first element.
  std::vector<bool> has_element_;
  bool pending_key_ = false;
};

/// Parsed JSON value (tests/tooling only; not used on any hot path).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  /// Object member access; returns nullptr when absent or not an object.
  const JsonValue* find(const std::string& name) const;
};

/// Parses `text`; throws std::runtime_error with position info on
/// malformed input.
JsonValue parse_json(const std::string& text);

}  // namespace nvmooc::obs
