#include "solver/basis_store.h"

#include <algorithm>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "util/fs.h"

namespace arrow::solver {

namespace {

// File "ARBS" version 2 (util/fs.h's checksummed layout; the fields are in
// docs/file-formats.md). The payload:
//
//   entry count   u64
//   per entry:    topo_hash u64, scenario_hash u64, rows i32, cols i32,
//                 tag u64, status count u64, then that many status bytes
//                 (each 0..3)
//
// v2 added the per-entry WarmKey tag (the Phase I decomposition keys its
// master bases by tag). A v1 file — or any other version — is rejected by
// load() and the run degrades to a cold start, the documented contract for
// every unexpected file.
constexpr util::FileFormat kFormat{{'A', 'R', 'B', 'S'}, 2};

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

bool BasisStore::save(const std::string& path) {
  // The lock serializes the whole read-merge-write cycle across processes;
  // without it, the re-load below could race another saver's rename and the
  // merge would still drop entries. A failed lock degrades to best-effort.
  util::FileLock lock(path + ".lock");
  load(path);
  std::string payload;
  long long pruned = 0;
  {
    std::lock_guard<std::mutex> guard(mu_);
    // LRU cap: when the store outgrows kMaxDiskEntries, only the most
    // recently used entries reach the file (the format carries no recency,
    // so the pruning decision lives here, not in the file). The in-memory
    // map keeps everything — a long-lived process loses nothing.
    std::vector<const std::map<Key, Entry>::value_type*> keep;
    keep.reserve(entries_.size());
    for (const auto& kv : entries_) keep.push_back(&kv);
    if (keep.size() > kMaxDiskEntries) {
      std::sort(keep.begin(), keep.end(), [](const auto* a, const auto* b) {
        return a->second.last_use > b->second.last_use;
      });
      pruned = static_cast<long long>(keep.size() - kMaxDiskEntries);
      keep.resize(kMaxDiskEntries);
      // Deterministic file layout: back to key order after the recency cut.
      std::sort(keep.begin(), keep.end(), [](const auto* a, const auto* b) {
        return a->first < b->first;
      });
    }
    util::put_u64(payload, static_cast<std::uint64_t>(keep.size()));
    for (const auto* kv : keep) {
      const Key& key = kv->first;
      util::put_u64(payload, key.topo_hash);
      util::put_u64(payload, key.scenario_hash);
      util::put_i32(payload, key.rows);
      util::put_i32(payload, key.cols);
      util::put_u64(payload, key.tag);
      util::put_u64(payload, kv->second.basis.status.size());
      for (BasisStatus s : kv->second.basis.status) {
        util::put_u8(payload, static_cast<std::uint8_t>(s));
      }
    }
  }
  if (!util::write_checksummed_file(path, kFormat, payload)) {
    static obs::Counter& save_errors = obs::Registry::global().counter(
        "arrow_basis_store_save_errors_total");
    save_errors.add();
    return false;
  }
  // Evictions count only once the write lands: a failed save evicts nothing
  // (the old file, with the old entry set, is still the truth on disk).
  if (pruned > 0) {
    std::lock_guard<std::mutex> guard(mu_);
    evictions_ += pruned;
    static obs::Counter& evicted = obs::Registry::global().counter(
        "arrow_basis_store_evictions_total");
    evicted.add(static_cast<std::uint64_t>(pruned));
  }
  return true;
}

bool BasisStore::load(const std::string& path) {
  const auto payload = util::read_checksummed_file(path, kFormat);
  if (!payload) return false;
  util::ByteReader r(*payload);
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
    const std::string_view status = r.bytes(r.u64());
    if (!r.ok() || key.rows < 0 || key.cols < 0) return false;
    Basis basis;
    basis.status.reserve(status.size());
    for (const char c : status) {
      const auto s = static_cast<unsigned char>(c);
      if (s > static_cast<unsigned char>(BasisStatus::kNonbasicFree)) {
        return false;
      }
      basis.status.push_back(static_cast<BasisStatus>(s));
    }
    staged[key] = std::move(basis);
  }
  if (!r.done()) return false;

  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, basis] : staged) {
    const auto [it, added] = entries_.try_emplace(key);
    if (!added) continue;  // memory wins
    it->second.basis = std::move(basis);
    touch(it->second);
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

long long BasisStore::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

}  // namespace arrow::solver
