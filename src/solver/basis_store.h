// Persistent warm-start basis store.
//
// ScopedWarmStartCache (lp.h) chains warm starts within one scope — one
// sweep chain, one controller run — and dies with it. The BasisStore is the
// layer above: a thread-safe map from (topology hash, scenario-set hash,
// LP shape) to the last optimal basis seen for that LP, surviving across
// controller runs in one process. A run seeds its ScopedWarmStartCache from
// the store on entry and absorbs the cache's final bases back on exit, so
// the second run over the same network starts every TE solve from the first
// run's optimal vertex.
//
// Keys hash the *structure* that determines LP geometry (topology wiring and
// capacities via topo::structure_hash, the failure scenario set via
// scenario::set_hash) plus the LP's (rows, cols) shape and its WarmKey tag
// (0 for ordinary solves; the Phase I decomposition tags its master bases so
// controller ticks chain them apart from other LPs of the same shape).
// Collisions and stale entries are harmless by the same argument as the
// scoped cache: a mismatched basis is just a poor starting vertex and the
// simplex falls back to (or retries from) the all-slack start, so
// warm-starting never costs correctness.
//
// save()/load() extend the store across *processes*: a versioned,
// FNV-1a-checksummed little-endian binary file (see basis_store.cc for the
// exact layout). Writes go to a temp file in the same directory and land via
// atomic rename, so a crashed or concurrent writer never leaves a torn file
// under the real name. load() verifies magic, version, checksum and every
// structural bound before touching the store; anything unexpected —
// truncation, corruption, a future format version — makes it return false
// with the store unchanged, degrading to a cold start by the same
// never-costs-correctness argument as above.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "solver/lp.h"

namespace arrow::solver {

class BasisStore {
 public:
  struct Key {
    std::uint64_t topo_hash = 0;
    std::uint64_t scenario_hash = 0;
    int rows = 0;
    int cols = 0;
    // WarmKey tag of the originating solve (0 = untagged). Last so aggregate
    // initializers predating the field keep meaning what they said.
    std::uint64_t tag = 0;

    bool operator<(const Key& o) const {
      if (topo_hash != o.topo_hash) return topo_hash < o.topo_hash;
      if (scenario_hash != o.scenario_hash) {
        return scenario_hash < o.scenario_hash;
      }
      if (rows != o.rows) return rows < o.rows;
      if (cols != o.cols) return cols < o.cols;
      return tag < o.tag;
    }
  };

  // All operations are thread-safe (one mutex; bases are copied in and out).
  void store(const Key& key, Basis basis);
  bool load(const Key& key, Basis* out) const;

  // Copies every basis stored under (topo_hash, scenario_hash) into `cache`
  // via preload (not counted as stores). Returns the number seeded.
  int seed(std::uint64_t topo_hash, std::uint64_t scenario_hash,
           ScopedWarmStartCache& cache) const;

  // Persists every entry of `cache` under (topo_hash, scenario_hash),
  // overwriting same-shaped entries. Returns the number absorbed.
  int absorb(std::uint64_t topo_hash, std::uint64_t scenario_hash,
             const ScopedWarmStartCache& cache);

  std::size_t size() const;
  void clear();

  // Writes the store to `path` (atomic: temp file + rename), keeping at most
  // max_disk_entries() — the least-recently-used entries beyond the cap are
  // pruned from the file (the in-memory store is never shrunk). "Used" means
  // touched by store/load/seed/absorb in this process; entries merged from a
  // file start oldest, in key order. Returns false when the file cannot be
  // created or written; the store is unaffected either way.
  bool save(const std::string& path) const;

  // On-disk entry cap for save(). Default 512 — a full controller run over
  // one (topology, scenario set) absorbs well under a dozen shapes, so the
  // cap only bites when many networks share one basis file. n == 0 disables
  // pruning.
  void set_max_disk_entries(std::size_t n);
  std::size_t max_disk_entries() const;
  // Entries pruned by save() over this store's lifetime (also exported as
  // the arrow_basis_store_evictions_total obs counter).
  long long evictions() const;

  // Shared-store save for N processes writing one basis file. save() alone
  // is torn-proof but last-writer-wins: two processes that both loaded the
  // same file and absorbed different runs will each write only their own
  // view, and whichever rename lands second silently drops the other's
  // entries. save_shared() closes that window with a util::FileLock on
  // `path + ".lock"`: under the (blocking, exclusive) lock it re-reads the
  // file, merges any entries this store has not seen — in-memory entries win
  // on key collision, since they are this process's freshest bases — and
  // then saves. Every writer's entries survive, whatever the interleaving.
  // If the lock cannot be taken (exotic filesystem, non-POSIX build) it
  // degrades to the unguarded merge-and-save. Returns false only when the
  // final write fails.
  bool save_shared(const std::string& path);

  // Merges the entries of a file previously written by save() into the store
  // (file entries overwrite same-key entries). Returns false — with the
  // store untouched — when the file is missing, truncated, corrupted, or a
  // different format version; a bad store file must never cost more than a
  // cold start.
  bool load(const std::string& path);

  // The store filename under a persistence directory (what the controller
  // uses for ControllerConfig::basis_dir / ARROW_BASIS_DIR).
  static std::string file_in(const std::string& dir);

  // Process-wide store. Opt-in: nothing uses it unless a caller passes it
  // (e.g. ControllerConfig::basis_store = &BasisStore::global()) — runs that
  // want cold, reproducible pivot trajectories just leave it unset.
  static BasisStore& global();

 private:
  struct Entry {
    Basis basis;
    std::uint64_t last_use = 0;  // monotonic ticket; higher = more recent
  };

  // Bumps an entry's recency. Caller holds mu_.
  void touch(Entry& entry) const { entry.last_use = ++use_tick_; }

  // Shared parse-and-merge behind both load() (file wins on key collision)
  // and save_shared() (memory wins — the file is only filled in around this
  // process's fresher bases).
  bool load_internal(const std::string& path, bool file_wins);

  mutable std::mutex mu_;
  // mutable: const reads (load-by-key, seed) still bump last_use — LRU
  // recency is bookkeeping, not logical state.
  mutable std::map<Key, Entry> entries_;
  mutable std::uint64_t use_tick_ = 0;
  std::size_t max_disk_entries_ = 512;
  mutable long long evictions_ = 0;
};

}  // namespace arrow::solver
