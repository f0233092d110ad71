// Test helpers for the checksummed binary files (the state journal and the
// basis store, util/fs.h): hex dumps for pinning exact bytes, and seeded
// mutants for fuzzing the loaders.
#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "util/hash.h"

namespace arrow::testing {

// Lower-case hex, two digits per byte.
inline std::string to_hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * bytes.size());
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

// Recomputes the FNV-1a trailer over every preceding byte, so a patched
// file passes the checksum and only the loader's own checks can refuse it.
inline void resign(std::string& file) {
  if (file.size() < 8) return;
  const std::uint64_t h =
      util::Fnv1a().bytes(file.data(), file.size() - 8).value();
  for (int i = 0; i < 8; ++i) {
    file[file.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>((h >> (8 * i)) & 0xff);
  }
}

// One seeded mutant of `file`: one to three of a bit flip, a truncation, a
// spliced span (bytes copied over another place) and a lying count (the u64
// at one of `count_offsets` nudged by one or replaced by a huge value).
// Every other mutant is re-signed.
inline std::string mutant(const std::string& file,
                          const std::vector<std::size_t>& count_offsets,
                          std::mt19937_64& rng, bool resigned) {
  const auto below = [&rng](std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng() % n);
  };
  std::string out = file;
  const int mutations = 1 + static_cast<int>(rng() % 3);
  for (int m = 0; m < mutations && !out.empty(); ++m) {
    switch (rng() % 4) {
      case 0:  // flip one bit of one byte
        out[below(out.size())] ^= static_cast<char>(1 << (rng() % 8));
        break;
      case 1:  // truncate
        out.resize(below(out.size()));
        break;
      case 2: {  // splice a span over another place
        const std::size_t from = below(out.size());
        const std::size_t to = below(out.size());
        const std::size_t len = 1 + below(std::min<std::size_t>(
                                        24, out.size() - std::max(from, to)));
        out.replace(to, len, out.substr(from, len));
        break;
      }
      default: {  // make a count lie
        const std::size_t at = count_offsets[below(count_offsets.size())];
        if (at + 8 > out.size()) break;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i) {
          v |= static_cast<std::uint64_t>(
                   static_cast<unsigned char>(out[at + i]))
               << (8 * i);
        }
        const std::uint64_t lies[] = {v + 1, v - 1, std::uint64_t{1} << 32,
                                      ~std::uint64_t{0}};
        v = lies[below(4)];
        for (int i = 0; i < 8; ++i) {
          out[at + static_cast<std::size_t>(i)] =
              static_cast<char>((v >> (8 * i)) & 0xff);
        }
        break;
      }
    }
  }
  if (resigned) resign(out);
  return out;
}

}  // namespace arrow::testing
