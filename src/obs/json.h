// Minimal JSON value model + recursive-descent parser.
//
// Exists so RunReport::from_json and the obs tests can read back the JSON
// this subsystem writes (reports, metrics snapshots, Chrome traces) without
// an external dependency. It parses standard JSON — objects, arrays,
// strings with the common escapes, numbers, booleans, null — and rejects
// anything else; it is a consumer for our own well-formed output, not a
// hardened parser for hostile input (depth is bounded to keep recursion
// sane).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace arrow::obs {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_number() const { return type == Type::kNumber; }
  bool is_string() const { return type == Type::kString; }

  // Object field access; returns nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const {
    if (type != Type::kObject) return nullptr;
    const auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
  // Convenience getters with defaults (wrong type returns the default).
  double num(const std::string& key, double fallback = 0.0) const {
    const JsonValue* v = find(key);
    return v != nullptr && v->is_number() ? v->number : fallback;
  }
  std::string text(const std::string& key, std::string fallback = {}) const {
    const JsonValue* v = find(key);
    return v != nullptr && v->is_string() ? v->str : fallback;
  }
};

// Parses `text` into `out`. On failure returns false and, when `error` is
// non-null, describes what went wrong and where.
bool json_parse(const std::string& text, JsonValue* out,
                std::string* error = nullptr);

// Compact single-line serialization (no trailing newline). Strings pass
// UTF-8 bytes through verbatim and escape only what JSON requires (quotes,
// backslash, control characters), so json_parse(json_emit(v)) round-trips
// non-ASCII text byte-for-byte. Numbers use std::to_chars: shortest
// round-trippable form, independent of LC_NUMERIC; NaN and infinities are
// written as null.
std::string json_emit(const JsonValue& value);

// The string-literal piece of json_emit: `s` with JSON escaping applied,
// without the surrounding quotes.
std::string json_escape(const std::string& s);

// Number formatting shared by every JSON/Prometheus writer in this
// subsystem: shortest round-trippable decimal form via std::to_chars,
// locale-independent (snprintf "%.17g" obeyed LC_NUMERIC and printed a
// comma decimal separator under e.g. de_DE).
std::string format_double(double v);

// format_double for JSON writers: JSON has no NaN or infinity, so a
// non-finite value is written as null.
std::string json_number(double v);

}  // namespace arrow::obs
