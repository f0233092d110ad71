#include "obs/report.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <type_traits>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace arrow::obs {

ObsConfig ObsConfig::resolved() const {
  ObsConfig out = *this;
  if (out.dir.empty()) {
    if (const char* env = std::getenv("ARROW_OBS_DIR")) {
      if (env[0] != '\0') {
        out.dir = env;
        out.enabled = true;
      }
    }
  }
  if (const char* env = std::getenv("ARROW_TRACE")) {
    if (env[0] != '\0' && !(env[0] == '0' && env[1] == '\0')) {
      out.trace = true;
      out.enabled = true;
    }
  }
  if (out.dir.empty()) out.dir = ".";
  if (out.run_id.empty()) out.run_id = "run";
  return out;
}

namespace {

// The version is the one key outside RunReport::for_each_field: from_json
// checks it before reading any field.
constexpr const char* kVersionKey = "version";

// One field's JSON value. format_double is std::to_chars (locale-
// independent — "%.17g" obeyed LC_NUMERIC), and json_escape covers every
// control character, so a surprising string cannot corrupt the file.
std::string json_value(const std::string& s) {
  return "\"" + json_escape(s) + "\"";
}
std::string json_value(bool b) { return b ? "true" : "false"; }
std::string json_value(int v) { return std::to_string(v); }
std::string json_value(long long v) { return std::to_string(v); }
std::string json_value(double v) { return format_double(v); }
template <class T>
std::string json_value(const T* v) {
  return json_value(*v);
}
// A nested object: {"key": value, ...} on one line.
template <class Members>
std::string json_object(const Members& members) {
  std::string out = "{";
  for (const auto& [key, value] : members) {
    if (out.size() > 1) out += ", ";
    out += "\"" + json_escape(key) + "\": " + json_value(value);
  }
  return out + "}";
}
std::string json_value(const std::vector<std::pair<std::string, int>>& v) {
  return json_object(v);
}
template <class T, std::size_t N>
std::string json_value(const std::array<std::pair<const char*, T*>, N>& v) {
  return json_object(v);
}

// A JSON number as an integer field. Out-of-range values saturate and NaN
// reads as 0, so no input makes the conversion undefined.
template <class T>
T to_integer(double v) {
  if (std::isnan(v)) return 0;
  if (v <= static_cast<double>(std::numeric_limits<T>::min())) {
    return std::numeric_limits<T>::min();
  }
  if (v >= static_cast<double>(std::numeric_limits<T>::max())) {
    return std::numeric_limits<T>::max();
  }
  return static_cast<T>(v);
}

// Reads one field from the report object. A missing key, or one of the
// wrong type, leaves the field at its default.
void read_value(const JsonValue& root, const char* key, std::string& v) {
  v = root.text(key);
}
void read_value(const JsonValue& root, const char* key, bool& v) {
  if (const JsonValue* j = root.find(key)) v = j->boolean;
}
void read_value(const JsonValue& root, const char* key, double& v) {
  v = root.num(key);
}
template <class T>
  requires std::is_integral_v<T>
void read_value(const JsonValue& root, const char* key, T& v) {
  v = to_integer<T>(root.num(key));
}
void read_value(const JsonValue& root, const char* key,
                std::vector<std::pair<std::string, int>>& ladder) {
  if (const JsonValue* j = root.find(key)) {
    for (const auto& [name, v] : j->object) {
      if (v.is_number()) ladder.emplace_back(name, to_integer<int>(v.number));
    }
  }
}
template <std::size_t N>
void read_value(const JsonValue& root, const char* key,
                const std::array<std::pair<const char*, double*>, N>& members) {
  if (const JsonValue* j = root.find(key)) {
    for (const auto& [name, v] : members) *v = j->num(name);
  }
}

}  // namespace

std::string RunReport::to_json() const {
  std::string out = "{\n  \"" + std::string(kVersionKey) +
                    "\": " + std::to_string(kVersion);
  for_each_field(*this, [&out](const char* key, const auto& value) {
    out += ",\n  \"" + std::string(key) + "\": " + json_value(value);
  });
  return out + "\n}\n";
}

bool RunReport::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << to_json();
  return static_cast<bool>(out);
}

bool RunReport::from_json(const std::string& text, RunReport* out) {
  JsonValue root;
  if (!json_parse(text, &root) || !root.is_object()) return false;
  if (to_integer<int>(root.num(kVersionKey, -1)) != kVersion) return false;
  RunReport r;
  for_each_field(r, [&root](const char* key, auto&& field) {
    read_value(root, key, field);
  });
  *out = std::move(r);
  return true;
}

bool emit_run_artifacts(const ObsConfig& cfg, const RunReport& report) {
  bool ok = true;
  if (cfg.enabled) {
    ok = report.write(cfg.report_path()) && ok;
    {
      std::ofstream out(cfg.metrics_prom_path(), std::ios::trunc);
      ok = (out && (out << Registry::global().prometheus_text())) && ok;
    }
    {
      std::ofstream out(cfg.metrics_json_path(), std::ios::trunc);
      ok = (out && (out << Registry::global().json_text())) && ok;
    }
  }
  if (cfg.trace) {
    ok = write_chrome_trace(cfg.trace_path()) && ok;
  }
  return ok;
}

}  // namespace arrow::obs
