#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace arrow::obs {

namespace {

constexpr int kMaxDepth = 64;

// Appends the UTF-8 encoding of `cp` (any scalar value up to U+10FFFF).
void append_utf8(std::string* out, std::uint32_t cp) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xc0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xe0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
  } else {
    out->push_back(static_cast<char>(0xf0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
  }
}

struct Parser {
  const std::string& text;
  std::size_t pos = 0;
  std::string error;

  bool fail(const std::string& what) {
    if (error.empty()) {
      error = what + " at byte " + std::to_string(pos);
    }
    return false;
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos >= text.size() || text[pos] != c) {
      return fail(std::string("expected '") + c + "'");
    }
    ++pos;
    return true;
  }

  // Four hex digits of a \uXXXX escape into *out.
  bool hex4(std::uint32_t* out) {
    if (text.size() - pos < 4) return fail("short \\u escape");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char h = text[pos++];
      v <<= 4;
      if (h >= '0' && h <= '9') v |= static_cast<std::uint32_t>(h - '0');
      else if (h >= 'a' && h <= 'f') v |= static_cast<std::uint32_t>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') v |= static_cast<std::uint32_t>(h - 'A' + 10);
      else return fail("bad \\u escape");
    }
    *out = v;
    return true;
  }

  bool parse_string(std::string* out) {
    if (!consume('"')) return false;
    out->clear();
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos >= text.size()) return fail("dangling escape");
        const char e = text[pos++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            // \uXXXX is a UTF-16 code unit: BMP units become 1-3 UTF-8
            // bytes; a high surrogate must be followed by \uXXXX with a low
            // surrogate, and the pair becomes one 4-byte sequence.
            std::uint32_t unit = 0;
            if (!hex4(&unit)) return false;
            if (unit >= 0xdc00 && unit <= 0xdfff) {
              return fail("unpaired low surrogate");
            }
            std::uint32_t cp = unit;
            if (unit >= 0xd800 && unit <= 0xdbff) {
              if (text.size() - pos < 2 || text[pos] != '\\' ||
                  text[pos + 1] != 'u') {
                return fail("unpaired high surrogate");
              }
              pos += 2;
              std::uint32_t low = 0;
              if (!hex4(&low)) return false;
              if (low < 0xdc00 || low > 0xdfff) {
                return fail("bad low surrogate");
              }
              cp = 0x10000 + ((unit - 0xd800) << 10) + (low - 0xdc00);
            }
            append_utf8(out, cp);
            break;
          }
          default:
            return fail("unknown escape");
        }
      } else {
        out->push_back(c);
      }
    }
    return fail("unterminated string");
  }

  bool parse_value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_ws();
    if (pos >= text.size()) return fail("unexpected end of input");
    const char c = text[pos];
    if (c == '{') {
      ++pos;
      out->type = JsonValue::Type::kObject;
      skip_ws();
      if (pos < text.size() && text[pos] == '}') {
        ++pos;
        return true;
      }
      while (true) {
        std::string key;
        if (!parse_string(&key)) return false;
        if (!consume(':')) return false;
        JsonValue child;
        if (!parse_value(&child, depth + 1)) return false;
        out->object[key] = std::move(child);
        skip_ws();
        if (pos >= text.size()) return fail("unterminated object");
        if (text[pos] == ',') {
          ++pos;
          skip_ws();
          continue;
        }
        if (text[pos] == '}') {
          ++pos;
          return true;
        }
        return fail("expected ',' or '}'");
      }
    }
    if (c == '[') {
      ++pos;
      out->type = JsonValue::Type::kArray;
      skip_ws();
      if (pos < text.size() && text[pos] == ']') {
        ++pos;
        return true;
      }
      while (true) {
        JsonValue child;
        if (!parse_value(&child, depth + 1)) return false;
        out->array.push_back(std::move(child));
        skip_ws();
        if (pos >= text.size()) return fail("unterminated array");
        if (text[pos] == ',') {
          ++pos;
          continue;
        }
        if (text[pos] == ']') {
          ++pos;
          return true;
        }
        return fail("expected ',' or ']'");
      }
    }
    if (c == '"') {
      out->type = JsonValue::Type::kString;
      return parse_string(&out->str);
    }
    if (text.compare(pos, 4, "true") == 0) {
      out->type = JsonValue::Type::kBool;
      out->boolean = true;
      pos += 4;
      return true;
    }
    if (text.compare(pos, 5, "false") == 0) {
      out->type = JsonValue::Type::kBool;
      out->boolean = false;
      pos += 5;
      return true;
    }
    if (text.compare(pos, 4, "null") == 0) {
      out->type = JsonValue::Type::kNull;
      pos += 4;
      return true;
    }
    // Number: std::from_chars is locale-independent — strtod honored
    // LC_NUMERIC and misparsed "1.5" as 1 under a comma-decimal locale. It
    // also reads "nan" and "inf", which are not JSON: a number must start
    // with an optional '-' and a digit.
    const char* first = text.c_str() + pos;
    const char* last = text.c_str() + text.size();
    const char* digit = first != last && *first == '-' ? first + 1 : first;
    if (digit == last || *digit < '0' || *digit > '9') {
      return fail("unexpected token");
    }
    double v = 0.0;
    const auto [end, ec] = std::from_chars(first, last, v);
    if (end == first || ec == std::errc::invalid_argument) {
      return fail("unexpected token");
    }
    if (ec != std::errc()) return fail("number out of range");
    out->type = JsonValue::Type::kNumber;
    out->number = v;
    pos = static_cast<std::size_t>(end - text.c_str());
    return true;
  }
};

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    const unsigned char u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (u < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out.push_back(kHex[u >> 4]);
          out.push_back(kHex[u & 0xf]);
        } else {
          out.push_back(c);  // UTF-8 bytes pass through verbatim
        }
    }
  }
  return out;
}

std::string format_double(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string json_number(double v) {
  return std::isfinite(v) ? format_double(v) : "null";
}

namespace {

void emit_value(const JsonValue& v, std::string* out) {
  switch (v.type) {
    case JsonValue::Type::kNull:
      *out += "null";
      return;
    case JsonValue::Type::kBool:
      *out += v.boolean ? "true" : "false";
      return;
    case JsonValue::Type::kNumber:
      *out += json_number(v.number);
      return;
    case JsonValue::Type::kString:
      *out += '"';
      *out += json_escape(v.str);
      *out += '"';
      return;
    case JsonValue::Type::kArray: {
      *out += '[';
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i > 0) *out += ',';
        emit_value(v.array[i], out);
      }
      *out += ']';
      return;
    }
    case JsonValue::Type::kObject: {
      *out += '{';
      bool first = true;
      for (const auto& [key, child] : v.object) {
        if (!first) *out += ',';
        first = false;
        *out += '"';
        *out += json_escape(key);
        *out += "\":";
        emit_value(child, out);
      }
      *out += '}';
      return;
    }
  }
}

}  // namespace

std::string json_emit(const JsonValue& value) {
  std::string out;
  emit_value(value, &out);
  return out;
}

bool json_parse(const std::string& text, JsonValue* out, std::string* error) {
  Parser p{text};
  JsonValue value;
  if (!p.parse_value(&value, 0)) {
    if (error != nullptr) *error = p.error;
    return false;
  }
  p.skip_ws();
  if (p.pos != text.size()) {
    if (error != nullptr) {
      *error = "trailing garbage at byte " + std::to_string(p.pos);
    }
    return false;
  }
  *out = std::move(value);
  return true;
}

}  // namespace arrow::obs
