// Minimal JSON support for the telemetry layer: a streaming writer (used by
// the metrics registry, the Chrome-trace exporter and the bench reporter)
// and a strict recursive-descent parser (used by tests and tooling to
// validate what the writers emit). No external dependencies.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace tcc::telemetry {

/// Escape a string for embedding inside JSON double quotes.
[[nodiscard]] std::string json_escape(const std::string& s);

/// A complete JSON string literal: json_escape(s) inside double quotes.
[[nodiscard]] std::string json_quote(const std::string& s);

/// Format a double the way JSON requires: finite values as shortest
/// round-trippable decimal, non-finite values as null (JSON has no inf/nan).
[[nodiscard]] std::string json_number(double v);

/// Streaming JSON writer with automatic comma/nesting management.
///
///   JsonWriter w;
///   w.begin_object();
///   w.key("config"); w.begin_object(); ... w.end_object();
///   w.key("p50"); w.value(227.0);
///   w.end_object();
///   std::string doc = w.str();
class JsonWriter {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();
  void key(const std::string& k);
  void value(const std::string& v);
  void value(const char* v);
  void value(double v);
  void value(std::uint64_t v);
  void value(std::int64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(bool v);
  void null();
  /// Splice a pre-serialized JSON fragment in value position.
  void raw(const std::string& json);

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void comma();

  std::string out_;
  std::vector<bool> needs_comma_;  // per open container
  bool after_key_ = false;
};

/// Parsed JSON value (document-object-model style; fine for test-sized
/// inputs).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  [[nodiscard]] bool is_object() const { return kind == Kind::kObject; }
  [[nodiscard]] bool is_array() const { return kind == Kind::kArray; }
  [[nodiscard]] bool is_number() const { return kind == Kind::kNumber; }
  [[nodiscard]] bool is_string() const { return kind == Kind::kString; }

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& k) const;
};

/// Strict parse of a complete JSON document (trailing garbage is an error).
[[nodiscard]] Result<JsonValue> json_parse(const std::string& text);

}  // namespace tcc::telemetry
