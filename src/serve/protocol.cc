#include "serve/protocol.h"

#include <cstring>

namespace arrow::serve {

bool parse_request(const std::string& line, obs::JsonValue* out,
                   std::string* error) {
  std::string parse_error;
  if (!obs::json_parse(line, out, &parse_error)) {
    if (error != nullptr) *error = "bad json: " + parse_error;
    return false;
  }
  if (!out->is_object()) {
    if (error != nullptr) *error = "request must be a JSON object";
    return false;
  }
  const obs::JsonValue* op = out->find("op");
  if (op == nullptr || !op->is_string() || op->str.empty()) {
    if (error != nullptr) *error = "missing string field \"op\"";
    return false;
  }
  return true;
}

obs::JsonValue jnum(double v) {
  obs::JsonValue out;
  out.type = obs::JsonValue::Type::kNumber;
  out.number = v;
  return out;
}

obs::JsonValue jstr(std::string s) {
  obs::JsonValue out;
  out.type = obs::JsonValue::Type::kString;
  out.str = std::move(s);
  return out;
}

obs::JsonValue jbool(bool b) {
  obs::JsonValue out;
  out.type = obs::JsonValue::Type::kBool;
  out.boolean = b;
  return out;
}

std::string ok_line(obs::JsonValue fields) {
  fields.type = obs::JsonValue::Type::kObject;
  fields.object["ok"] = jbool(true);
  return obs::json_emit(fields) + "\n";
}

std::string error_line(const std::string& message) {
  obs::JsonValue out;
  out.type = obs::JsonValue::Type::kObject;
  out.object["ok"] = jbool(false);
  out.object["error"] = jstr(message);
  return obs::json_emit(out) + "\n";
}

bool parse_demands(const obs::JsonValue& demands, traffic::TrafficMatrix* tm,
                   std::string* error) {
  if (!demands.is_array()) {
    if (error != nullptr) *error = "\"demands\" must be an array";
    return false;
  }
  traffic::TrafficMatrix out;
  out.demands.reserve(demands.array.size());
  for (const obs::JsonValue& row : demands.array) {
    if (!row.is_array() || row.array.size() < 3 || !row.array[0].is_number() ||
        !row.array[1].is_number() || !row.array[2].is_number()) {
      if (error != nullptr) {
        *error = "each demand must be [src, dst, gbps] numbers";
      }
      return false;
    }
    traffic::Demand d;
    d.src = static_cast<topo::SiteId>(row.array[0].number);
    d.dst = static_cast<topo::SiteId>(row.array[1].number);
    d.gbps = row.array[2].number;
    if (d.src < 0 || d.dst < 0 || d.src == d.dst || d.gbps < 0.0) {
      if (error != nullptr) *error = "demand out of range";
      return false;
    }
    out.demands.push_back(d);
  }
  *tm = std::move(out);
  return true;
}

bool is_http_get(const std::string& line, std::string* target) {
  if (line.rfind("GET ", 0) != 0) return false;
  const std::size_t start = 4;
  std::size_t end = line.find(' ', start);
  if (end == std::string::npos) end = line.size();
  // Strip the \r an HTTP client terminates the request line with.
  while (end > start && (line[end - 1] == '\r' || line[end - 1] == ' ')) {
    --end;
  }
  if (target != nullptr) *target = line.substr(start, end - start);
  return end > start;
}

std::string http_response(const std::string& body,
                          const std::string& content_type) {
  std::string out = "HTTP/1.0 200 OK\r\n";
  out += "Content-Type: " + content_type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace arrow::serve
