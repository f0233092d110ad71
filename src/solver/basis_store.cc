#include "solver/basis_store.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/fs.h"
#include "util/hash.h"

namespace arrow::solver {

namespace {

// On-disk layout (all integers little-endian, fixed width):
//
//   bytes 0..3    magic "ARBS"
//   bytes 4..7    format version (u32, currently 2)
//   bytes 8..15   entry count (u64)
//   per entry:    topo_hash u64, scenario_hash u64, rows i32, cols i32,
//                 tag u64, status count u64, then that many status bytes
//                 (each 0..3)
//   trailer:      FNV-1a 64-bit checksum (u64) over every preceding byte
//
// v2 added the per-entry WarmKey tag (the Phase I decomposition keys its
// master bases by tag). A v1 file — or any other version —
// is rejected by load() and the run degrades to a cold start, the documented
// contract for every unexpected file.
//
// The checksum makes truncation and bit rot detectable without trusting any
// length field; the per-entry bounds checks below make a *valid-checksum*
// file from a future version (or a hostile one) unable to write garbage
// statuses into the store.
constexpr char kMagic[4] = {'A', 'R', 'B', 'S'};
constexpr std::uint32_t kVersion = 2;

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_i32(std::string& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}

// Cursor over an untrusted byte buffer: every read checks bounds and flips
// `ok` sticky-false on overrun, so the parser below can read linearly and
// check once per entry.
struct Reader {
  const unsigned char* data;
  std::size_t size;
  std::size_t pos = 0;
  bool ok = true;

  bool take(std::size_t n) {
    if (!ok || size - pos < n) {
      ok = false;
      return false;
    }
    return true;
  }
  std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data[pos + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos += 8;
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
};

}  // namespace

void BasisStore::store(const Key& key, Basis basis) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& entry = entries_[key];
  entry.basis = std::move(basis);
  touch(entry);
}

bool BasisStore::load(const Key& key, Basis* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  touch(it->second);
  if (out != nullptr) *out = it->second.basis;
  return true;
}

int BasisStore::seed(std::uint64_t topo_hash, std::uint64_t scenario_hash,
                     WarmStartCache& cache) const {
  std::lock_guard<std::mutex> lock(mu_);
  // Entries with one (topo, scenario) prefix are contiguous under Key's
  // lexicographic order; scan from the prefix's lower bound.
  Key from;
  from.topo_hash = topo_hash;
  from.scenario_hash = scenario_hash;
  int n = 0;
  for (auto it = entries_.lower_bound(from); it != entries_.end(); ++it) {
    if (it->first.topo_hash != topo_hash ||
        it->first.scenario_hash != scenario_hash) {
      break;
    }
    touch(it->second);
    cache.preload(it->first.rows, it->first.cols, it->second.basis,
                  it->first.tag);
    ++n;
  }
  static obs::Counter& seeded =
      obs::Registry::global().counter("arrow_basis_store_seeded_total");
  seeded.add(static_cast<std::uint64_t>(n));
  return n;
}

int BasisStore::absorb(std::uint64_t topo_hash, std::uint64_t scenario_hash,
                       const WarmStartCache& cache) {
  std::lock_guard<std::mutex> lock(mu_);
  int n = 0;
  for (const auto& [wk, basis] : cache.entries()) {
    Key key;
    key.topo_hash = topo_hash;
    key.scenario_hash = scenario_hash;
    key.rows = wk.rows;
    key.cols = wk.cols;
    key.tag = wk.tag;
    Entry& entry = entries_[key];
    entry.basis = basis;
    touch(entry);
    ++n;
  }
  static obs::Counter& absorbed =
      obs::Registry::global().counter("arrow_basis_store_absorbed_total");
  absorbed.add(static_cast<std::uint64_t>(n));
  return n;
}

bool BasisStore::save(const std::string& path) const {
  std::string buf;
  long long pruned = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // LRU cap: when the store outgrows max_disk_entries_, only the most
    // recently used entries reach the file (the format carries no recency,
    // so the pruning decision lives here, not in the file). The in-memory
    // map keeps everything — a long-lived process loses nothing.
    std::vector<const std::map<Key, Entry>::value_type*> keep;
    keep.reserve(entries_.size());
    for (const auto& kv : entries_) keep.push_back(&kv);
    if (max_disk_entries_ > 0 && keep.size() > max_disk_entries_) {
      std::sort(keep.begin(), keep.end(), [](const auto* a, const auto* b) {
        return a->second.last_use > b->second.last_use;
      });
      pruned = static_cast<long long>(keep.size() - max_disk_entries_);
      keep.resize(max_disk_entries_);
      // Deterministic file layout: back to key order after the recency cut.
      std::sort(keep.begin(), keep.end(), [](const auto* a, const auto* b) {
        return a->first < b->first;
      });
      // Eviction accounting is deferred until the write actually lands: a
      // failed save evicts nothing (the old file, with the old entry set, is
      // still the truth on disk).
    }
    buf.append(kMagic, sizeof(kMagic));
    put_u32(buf, kVersion);
    put_u64(buf, static_cast<std::uint64_t>(keep.size()));
    for (const auto* kv : keep) {
      const Key& key = kv->first;
      const Basis& basis = kv->second.basis;
      put_u64(buf, key.topo_hash);
      put_u64(buf, key.scenario_hash);
      put_i32(buf, key.rows);
      put_i32(buf, key.cols);
      put_u64(buf, key.tag);
      put_u64(buf, static_cast<std::uint64_t>(basis.status.size()));
      for (BasisStatus s : basis.status) {
        buf.push_back(static_cast<char>(s));
      }
    }
  }
  put_u64(buf, util::Fnv1a().bytes(buf.data(), buf.size()).value());

  // Write-to-temp + rename (util::write_file_atomic): readers only ever see
  // the old file or the complete new one. The pid suffix keeps concurrent
  // writers (two controller processes sharing ARROW_BASIS_DIR) off each
  // other's temp files; rename picks an arbitrary winner, which is fine —
  // either file is a complete, valid store.
  if (!util::write_file_atomic(path, buf)) {
    static obs::Counter& save_errors = obs::Registry::global().counter(
        "arrow_basis_store_save_errors_total");
    save_errors.add();
    return false;
  }
  if (pruned > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    evictions_ += pruned;
    static obs::Counter& evicted = obs::Registry::global().counter(
        "arrow_basis_store_evictions_total");
    evicted.add(static_cast<std::uint64_t>(pruned));
  }
  return true;
}

bool BasisStore::save_shared(const std::string& path) {
  // The lock serializes the whole read-merge-write cycle across processes;
  // without it, the re-load below could race another saver's rename and the
  // merge would still drop entries. A failed lock degrades to best-effort.
  util::FileLock lock(path + ".lock");
  // Memory wins: this process's absorbed bases are fresher than whatever an
  // earlier saver left under the same key, but every key only *they* have
  // is merged in and written back out.
  load_internal(path, /*file_wins=*/false);
  return save(path);
}

bool BasisStore::load(const std::string& path) {
  return load_internal(path, /*file_wins=*/true);
}

bool BasisStore::load_internal(const std::string& path, bool file_wins) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::string buf((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  if (in.bad()) return false;
  // Shortest valid file: header + checksum, zero entries.
  if (buf.size() < sizeof(kMagic) + 4 + 8 + 8) return false;

  const std::uint64_t want =
      util::Fnv1a().bytes(buf.data(), buf.size() - 8).value();
  Reader r{reinterpret_cast<const unsigned char*>(buf.data()), buf.size()};
  Reader trailer = r;
  trailer.pos = buf.size() - 8;
  if (trailer.u64() != want) return false;
  r.size = buf.size() - 8;  // everything before the checksum

  if (!r.take(sizeof(kMagic)) ||
      std::memcmp(buf.data(), kMagic, sizeof(kMagic)) != 0) {
    return false;
  }
  r.pos += sizeof(kMagic);
  if (r.u32() != kVersion) return false;
  const std::uint64_t count = r.u64();

  // Parse into a staging map first: the store mutates only after the whole
  // file checks out.
  std::map<Key, Basis> staged;
  for (std::uint64_t i = 0; i < count; ++i) {
    Key key;
    key.topo_hash = r.u64();
    key.scenario_hash = r.u64();
    key.rows = r.i32();
    key.cols = r.i32();
    key.tag = r.u64();
    const std::uint64_t n = r.u64();
    if (!r.ok || key.rows < 0 || key.cols < 0 || n > r.size - r.pos) {
      return false;
    }
    Basis basis;
    basis.status.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t j = 0; j < n; ++j) {
      const unsigned char s = r.data[r.pos + static_cast<std::size_t>(j)];
      if (s > static_cast<unsigned char>(BasisStatus::kNonbasicFree)) {
        return false;
      }
      basis.status.push_back(static_cast<BasisStatus>(s));
    }
    r.pos += static_cast<std::size_t>(n);
    staged[key] = std::move(basis);
  }
  // Trailing garbage before the checksum means the count lied.
  if (!r.ok || r.pos != r.size) return false;

  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, basis] : staged) {
    if (!file_wins && entries_.find(key) != entries_.end()) continue;
    Entry& entry = entries_[key];
    entry.basis = std::move(basis);
    touch(entry);  // key order: file entries start oldest-first
  }
  static obs::Counter& loads =
      obs::Registry::global().counter("arrow_basis_store_file_loads_total");
  loads.add();
  return true;
}

std::string BasisStore::file_in(const std::string& dir) {
  return dir + "/arrow_basis.bin";
}

std::size_t BasisStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void BasisStore::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

void BasisStore::set_max_disk_entries(std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  max_disk_entries_ = n;
}

std::size_t BasisStore::max_disk_entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return max_disk_entries_;
}

long long BasisStore::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

BasisStore& BasisStore::global() {
  static BasisStore store;
  return store;
}

}  // namespace arrow::solver
