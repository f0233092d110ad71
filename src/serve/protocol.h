// Wire protocol of the resident controller daemon (`arrowctl serve`).
//
// One socket, two dialects, chosen per line:
//
//   * NDJSON requests — one JSON object per newline-terminated line, with a
//     string field "op" naming the operation. Every request gets exactly one
//     single-line JSON reply carrying "ok": true/false (and "error" on
//     failure), so a client can pipeline requests and pair replies by order.
//     Operations: hello, topology, tick, cut, repair, query, metrics,
//     report, shutdown (see docs/serving.md for the field schemas).
//
//   * "GET /metrics" and "GET /report" — a plain HTTP GET line gets a
//     complete HTTP/1.0 response (Prometheus text or the RunReport JSON)
//     and the connection closes, so `curl --unix-socket` and a Prometheus
//     scraper work against the same socket the NDJSON clients use.
//
// This header is the pure parse/emit layer: no sockets, no engine — just
// string -> JsonValue -> string, unit-testable without a daemon.
#pragma once

#include <string>

#include "obs/json.h"
#include "traffic/traffic.h"

namespace arrow::serve {

// Parses one request line into an object with a string "op" field. Returns
// false (with `error` set) on malformed JSON, a non-object, or a missing op.
bool parse_request(const std::string& line, obs::JsonValue* out,
                   std::string* error);

// JsonValue literals, so building a reply reads declaratively.
obs::JsonValue jnum(double v);
obs::JsonValue jstr(std::string s);
obs::JsonValue jbool(bool b);

// One reply line (compact JSON + '\n'). ok_line stamps "ok": true into
// `fields` (an object; pass {} for a bare acknowledgment); error_line
// carries "ok": false plus the message.
std::string ok_line(obs::JsonValue fields);
std::string error_line(const std::string& message);

// Reads a JSON number as an int id (a site or fiber). False unless the
// number is finite, integral and within int's range.
bool parse_id(const obs::JsonValue& v, int* out);

// Decodes a "demands": [[src, dst, gbps], ...] field into a traffic matrix.
// Rejects non-arrays, short rows, non-numeric cells, ids parse_id refuses,
// and a non-finite rate.
bool parse_demands(const obs::JsonValue& demands, traffic::TrafficMatrix* tm,
                   std::string* error);

// True when `line` is an HTTP GET request line; `target` gets the path
// ("/metrics"). Tolerates both "GET /x" and "GET /x HTTP/1.1".
bool is_http_get(const std::string& line, std::string* target);

// Minimal complete HTTP/1.0 response (Content-Length set, connection
// close) around `body`.
std::string http_response(const std::string& body,
                          const std::string& content_type);

}  // namespace arrow::serve
