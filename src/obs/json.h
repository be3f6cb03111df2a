// Minimal JSON support for the observability exporters and their tests.
//
// The writers in this library (Chrome trace export, metric dumps, profile
// artifacts) only need escaping; the recursive-descent parser exists so tests
// can validate emitted output without an external JSON dependency. It
// handles the full value grammar (objects, arrays, strings with escapes,
// numbers, true/false/null) but is not tuned for large documents.
#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace cool::obs {

// Escapes `text` for inclusion inside a JSON string literal (quotes,
// backslashes, control characters; everything else passes through).
std::string json_escape(std::string_view text);

// Formats a double as a JSON number: finite values in shortest round-trip
// form, NaN/inf as null (JSON has no spelling for them).
std::string json_number(double value);

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_number() const noexcept { return kind_ == Kind::kNumber; }

  // Typed accessors; throw std::runtime_error on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  const std::map<std::string, JsonValue>& as_object() const;

  // Object member lookup; throws when not an object or key absent.
  const JsonValue& at(const std::string& key) const;
  bool contains(const std::string& key) const;

  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double x);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(std::map<std::string, JsonValue> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::map<std::string, JsonValue> object_;
};

// Parses exactly one JSON document (trailing whitespace allowed). Throws
// std::runtime_error with position information on malformed input.
JsonValue parse_json(std::string_view text);

}  // namespace cool::obs
