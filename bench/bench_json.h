// Machine-readable bench output: one flat JSON object per bench binary,
// written to BENCH_<name>.json so CI (or a human with jq) can diff runs
// without scraping stdout. See docs/performance.md for the conventions —
// wall-clock keys end in _ms, counts are plain integers, and every file
// carries `threads` so a perf regression can be told apart from a
// thread-count change.
//
// Output directory: $ARROW_BENCH_DIR when set, else the working directory.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"

namespace arrow::bench {

class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  void set(const std::string& key, double value) {
    // to_chars round-trips doubles independent of LC_NUMERIC ("%.17g"
    // printed comma decimals under e.g. de_DE); JSON has no Inf/NaN, so
    // those are written as null.
    entries_.emplace_back(key, obs::json_number(value));
  }
  void set(const std::string& key, long long value) {
    entries_.emplace_back(key, std::to_string(value));
  }
  void set(const std::string& key, int value) {
    set(key, static_cast<long long>(value));
  }
  void set(const std::string& key, const std::string& value) {
    entries_.emplace_back(key, "\"" + escape(value) + "\"");
  }

  std::string path() const {
    const char* dir = std::getenv("ARROW_BENCH_DIR");
    const std::string base = dir != nullptr && *dir != '\0' ? dir : ".";
    return base + "/BENCH_" + name_ + ".json";
  }

  // Returns false (after printing a warning) if the file cannot be written;
  // benches treat that as non-fatal so a read-only CWD never fails a run.
  bool write() const {
    const std::string p = path();
    std::ofstream out(p);
    if (!out) {
      std::fprintf(stderr, "bench_json: cannot write %s\n", p.c_str());
      return false;
    }
    out << "{\n";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      out << "  \"" << escape(entries_[i].first) << "\": "
          << entries_[i].second << (i + 1 < entries_.size() ? "," : "")
          << "\n";
    }
    out << "}\n";
    out.close();
    std::fprintf(stderr, "bench_json: wrote %s\n", p.c_str());
    return out.good();
  }

 private:
  static std::string escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out += c;
          }
      }
    }
    return out;
  }

  std::string name_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace arrow::bench
