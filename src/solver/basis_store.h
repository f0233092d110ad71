// Persistent warm-start basis store.
//
// A WarmStartCache (lp.h) chains warm starts within one owner — one sweep
// chain, one controller run or daemon session — and dies with it. The
// BasisStore is the layer above: a thread-safe map from (topology hash,
// scenario-set hash, LP shape) to the last optimal basis seen for that LP,
// kept in a file between runs. A ctrl::Session owns one exactly when a basis
// directory is set: it loads the directory's file, seeds its WarmStartCache
// from the store on entry, and absorbs the cache's final bases back and
// saves on exit, so the next run over the same network — in this process or
// another — starts every TE solve from this run's optimal vertex.
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
// save()/load() extend the store across *processes* through one file in a
// basis directory (file_in). The file is util/fs.h's checksummed layout with
// the entries as payload (docs/file-formats.md). Writes land via atomic
// rename under a file lock, so a crashed or concurrent writer never leaves
// a torn file and never drops another writer's entries. load() verifies
// magic, version, checksum and every structural bound before touching the
// store; anything unexpected — truncation, corruption, a future format
// version — makes it return false with the store unchanged, degrading to a
// cold start by the same never-costs-correctness argument as above.
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
           WarmStartCache& cache) const;

  // Persists every entry of `cache` under (topo_hash, scenario_hash),
  // overwriting same-shaped entries. Returns the number absorbed.
  int absorb(std::uint64_t topo_hash, std::uint64_t scenario_hash,
             const WarmStartCache& cache);

  std::size_t size() const;
  void clear();

  // On-disk entry cap. A full controller run over one (topology, scenario
  // set) absorbs well under a dozen shapes, so the cap only bites when many
  // networks share one basis file.
  static constexpr std::size_t kMaxDiskEntries = 512;

  // Writes the store to `path` for N processes sharing one file. Under a
  // blocking, exclusive util::FileLock on `path + ".lock"` it re-reads the
  // file and merges the entries this store has not seen (load's rule:
  // in-memory entries win, since they are this process's freshest bases),
  // then writes atomically (temp file + rename). Every writer's entries
  // survive, whatever the interleaving. At most kMaxDiskEntries reach the
  // file: the least-recently-used beyond the cap are pruned from it (the
  // in-memory store is never shrunk). "Used" means touched by
  // store/load/seed/absorb in this process. If the lock cannot be taken
  // (exotic filesystem, non-POSIX build) the merge and write still run,
  // unguarded. Returns false only when the write fails; the previous file
  // is then intact.
  bool save(const std::string& path);

  // Entries pruned by save() over this store's lifetime (also exported as
  // the arrow_basis_store_evictions_total obs counter).
  long long evictions() const;

  // Merges the entries of a file written by save() into the store; on a key
  // collision the in-memory entry wins. Returns false — with the store
  // untouched — when the file is missing, truncated, corrupted, or a
  // different format version; a bad store file must never cost more than a
  // cold start.
  bool load(const std::string& path);

  // The store filename under a persistence directory (what the controller
  // uses for ControllerConfig::basis_dir / ARROW_BASIS_DIR).
  static std::string file_in(const std::string& dir);

 private:
  struct Entry {
    Basis basis;
    std::uint64_t last_use = 0;  // monotonic ticket; higher = more recent
  };

  // Bumps an entry's recency. Caller holds mu_.
  void touch(Entry& entry) const { entry.last_use = ++use_tick_; }

  mutable std::mutex mu_;
  // mutable: const reads (load-by-key, seed) still bump last_use — LRU
  // recency is bookkeeping, not logical state.
  mutable std::map<Key, Entry> entries_;
  mutable std::uint64_t use_tick_ = 0;
  mutable long long evictions_ = 0;
};

}  // namespace arrow::solver
