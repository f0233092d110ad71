// Tests for the persistent warm-start BasisStore: key round-trips, the
// seed/absorb protocol against ScopedWarmStartCache, and the end-to-end
// effect — a second solve of the same-shaped LP warm-starts from the basis a
// previous scope left behind.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

#include "controller/controller.h"
#include "solver/basis_store.h"
#include "solver/lp.h"
#include "solver/model.h"
#include "topo/builders.h"
#include "util/hash.h"

namespace arrow::solver {
namespace {

Basis make_basis(int cols, BasisStatus fill) {
  Basis b;
  b.status.assign(static_cast<std::size_t>(cols), fill);
  return b;
}

TEST(BasisStore, StoreLoadRoundTrip) {
  BasisStore store;
  const BasisStore::Key key{11, 22, 3, 7};
  store.store(key, make_basis(7, BasisStatus::kBasic));
  EXPECT_EQ(store.size(), 1u);

  Basis out;
  ASSERT_TRUE(store.load(key, &out));
  EXPECT_EQ(out.status.size(), 7u);
  EXPECT_EQ(out.num_basic(), 7);

  // Any differing key component misses.
  EXPECT_FALSE(store.load({12, 22, 3, 7}, &out));
  EXPECT_FALSE(store.load({11, 23, 3, 7}, &out));
  EXPECT_FALSE(store.load({11, 22, 4, 7}, &out));
  EXPECT_FALSE(store.load({11, 22, 3, 8}, &out));

  // Re-storing the same key overwrites, not duplicates.
  store.store(key, make_basis(7, BasisStatus::kNonbasicLower));
  EXPECT_EQ(store.size(), 1u);
  ASSERT_TRUE(store.load(key, &out));
  EXPECT_EQ(out.num_basic(), 0);

  store.clear();
  EXPECT_EQ(store.size(), 0u);
}

TEST(BasisStore, SeedPreloadsOnlyMatchingEntriesAndCountsNoStores) {
  BasisStore store;
  store.store({7, 9, 10, 20}, make_basis(20, BasisStatus::kBasic));
  store.store({7, 9, 30, 40}, make_basis(40, BasisStatus::kBasic));
  store.store({7, 8, 10, 20}, make_basis(20, BasisStatus::kBasic));  // other set
  store.store({6, 9, 10, 20}, make_basis(20, BasisStatus::kBasic));  // other topo

  ScopedWarmStartCache cache;
  EXPECT_EQ(store.seed(7, 9, cache), 2);
  EXPECT_EQ(cache.entries().size(), 2u);
  EXPECT_EQ(cache.entries().count({10, 20}), 1u);
  EXPECT_EQ(cache.entries().count({30, 40}), 1u);
  // Preloads must not pollute this run's own store counter.
  EXPECT_EQ(cache.stores(), 0);
  EXPECT_EQ(cache.hits(), 0);
}

TEST(BasisStore, AbsorbPersistsCacheEntries) {
  BasisStore store;
  {
    ScopedWarmStartCache cache;
    cache.store(5, 12, make_basis(12, BasisStatus::kBasic));
    cache.store(8, 16, make_basis(16, BasisStatus::kNonbasicUpper));
    EXPECT_EQ(store.absorb(3, 4, cache), 2);
  }
  EXPECT_EQ(store.size(), 2u);
  Basis out;
  ASSERT_TRUE(store.load({3, 4, 5, 12}, &out));
  EXPECT_EQ(out.status.size(), 12u);
  ASSERT_TRUE(store.load({3, 4, 8, 16}, &out));
  EXPECT_EQ(out.status.size(), 16u);
}

TEST(BasisStore, GlobalIsASingleton) {
  EXPECT_EQ(&BasisStore::global(), &BasisStore::global());
}

// A small LP solved in one scope leaves its basis in the store; the next
// scope's identically-shaped solve warm-starts from it and lands on the same
// optimum.
TEST(BasisStore, SecondScopeWarmStartsFromFirstScopesBasis) {
  BasisStore store;
  const auto solve_once = [] {
    Model m;
    m.set_maximize();
    const auto x = m.add_var(0.0, 10.0, 1.0, "x");
    const auto y = m.add_var(0.0, 10.0, 2.0, "y");
    LinExpr sum;
    sum.add_term(x, 1.0);
    sum.add_term(y, 1.0);
    m.add_constr(sum, Sense::kLe, 12.0);
    const auto res = m.solve();
    EXPECT_TRUE(res.optimal());
    return res.objective;
  };

  double cold_obj = 0.0;
  {
    ScopedWarmStartCache cache;
    EXPECT_EQ(store.seed(1, 2, cache), 0);  // store starts empty
    cold_obj = solve_once();
    EXPECT_EQ(cache.hits(), 0);
    EXPECT_GT(cache.stores(), 0);
    EXPECT_GT(store.absorb(1, 2, cache), 0);
  }
  {
    ScopedWarmStartCache cache;
    EXPECT_GT(store.seed(1, 2, cache), 0);
    const double warm_obj = solve_once();
    EXPECT_EQ(cache.hits(), 1);  // the solve found the preloaded basis
    EXPECT_DOUBLE_EQ(warm_obj, cold_obj);
  }
}

// Controller opt-in plumbing: a run with config.basis_store set populates
// the store, and a second run over the same network still solves every
// matrix on the primary rung while reusing the persisted bases.
TEST(BasisStore, ControllerRunsPopulateAndReuseTheStore) {
  const topo::Network net = topo::build_b4();
  util::Rng trng(7);
  traffic::TrafficParams tp;
  tp.num_matrices = 1;
  const auto tms = traffic::generate_traffic(net, tp, trng);

  ctrl::ControllerConfig config;
  config.scheme = "FFC-1";
  config.horizon_s = 1800.0;
  config.te_interval_s = 600.0;
  config.tunnels.tunnels_per_flow = 4;
  config.scenarios.probability_cutoff = 0.002;
  config.demand_scale = 0.3;

  BasisStore store;
  config.basis_store = &store;
  util::Rng r1(5);
  const auto first = ctrl::run_controller(net, tms, {}, config, r1);
  EXPECT_EQ(first.fallback_counts[0], first.te_runs);
  EXPECT_GT(store.size(), 0u);

  const std::size_t after_first = store.size();
  util::Rng r2(5);
  const auto second = ctrl::run_controller(net, tms, {}, config, r2);
  EXPECT_EQ(second.fallback_counts[0], second.te_runs);
  // Same network + scenario set: the second run re-keys onto the same
  // entries instead of growing the store.
  EXPECT_EQ(store.size(), after_first);
  // Warm starts must not change what the controller delivers.
  EXPECT_DOUBLE_EQ(second.offered_gbps_seconds, first.offered_gbps_seconds);
  EXPECT_NEAR(second.availability(), first.availability(), 1e-9);
}

// --- on-disk persistence ----------------------------------------------------
// save()/load() must round-trip exactly, and *every* malformed file —
// truncated at any byte, any single byte flipped, a future version, garbage
// status codes — must be rejected with the store untouched: a bad file
// degrades to a cold start, never to an error or a polluted store.

std::string scratch_file(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void write_all(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out) << path;
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good());
}

// Recomputes the trailing FNV-1a checksum after a deliberate patch, so the
// tests below can distinguish "rejected by checksum" from "rejected by the
// structural validation a valid-checksum file still has to pass".
void refresh_checksum(std::string& buf) {
  ASSERT_GE(buf.size(), 8u);
  const std::uint64_t h =
      util::Fnv1a().bytes(buf.data(), buf.size() - 8).value();
  for (int i = 0; i < 8; ++i) {
    buf[buf.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>((h >> (8 * i)) & 0xff);
  }
}

// (BasisStore owns a mutex, so the fixture fills a caller-owned store.)
void fill_disk_fixture(BasisStore& store) {
  store.store({11, 22, 3, 7}, make_basis(7, BasisStatus::kBasic));
  store.store({11, 22, 5, 9}, make_basis(9, BasisStatus::kNonbasicUpper));
  store.store({33, 44, 2, 4}, make_basis(4, BasisStatus::kNonbasicFree));
}

bool save_disk_fixture(const std::string& path) {
  BasisStore store;
  fill_disk_fixture(store);
  return store.save(path);
}

void expect_fixture_contents(const BasisStore& store) {
  EXPECT_EQ(store.size(), 3u);
  Basis out;
  ASSERT_TRUE(store.load({11, 22, 3, 7}, &out));
  EXPECT_EQ(out.status, make_basis(7, BasisStatus::kBasic).status);
  ASSERT_TRUE(store.load({11, 22, 5, 9}, &out));
  EXPECT_EQ(out.status, make_basis(9, BasisStatus::kNonbasicUpper).status);
  ASSERT_TRUE(store.load({33, 44, 2, 4}, &out));
  EXPECT_EQ(out.status, make_basis(4, BasisStatus::kNonbasicFree).status);
}

TEST(BasisStoreDisk, SaveLoadRoundTrip) {
  const std::string path = scratch_file("basis_roundtrip.bin");
  ASSERT_TRUE(save_disk_fixture(path));

  BasisStore loaded;
  ASSERT_TRUE(loaded.load(path));
  expect_fixture_contents(loaded);

  // Loading merges: file entries overwrite same-key entries, others survive.
  BasisStore merged;
  merged.store({11, 22, 3, 7}, make_basis(7, BasisStatus::kNonbasicLower));
  merged.store({99, 99, 1, 2}, make_basis(2, BasisStatus::kBasic));
  ASSERT_TRUE(merged.load(path));
  EXPECT_EQ(merged.size(), 4u);
  Basis out;
  ASSERT_TRUE(merged.load({11, 22, 3, 7}, &out));
  EXPECT_EQ(out.status, make_basis(7, BasisStatus::kBasic).status);
  ASSERT_TRUE(merged.load({99, 99, 1, 2}, &out));
}

TEST(BasisStoreDisk, EmptyStoreRoundTrips) {
  const std::string path = scratch_file("basis_empty.bin");
  ASSERT_TRUE(BasisStore().save(path));
  BasisStore loaded;
  EXPECT_TRUE(loaded.load(path));
  EXPECT_EQ(loaded.size(), 0u);
}

TEST(BasisStoreDisk, SavePrunesLeastRecentlyUsedBeyondTheCap) {
  const std::string path = scratch_file("basis_lru.bin");
  BasisStore store;
  EXPECT_EQ(store.max_disk_entries(), 512u);  // documented default
  store.set_max_disk_entries(3);
  for (std::uint64_t i = 0; i < 5; ++i) {
    store.store({i, 0, 2, 4}, make_basis(4, BasisStatus::kBasic));
  }
  // Freshen entries 0 and 1: the const read path must count as a use.
  Basis out;
  ASSERT_TRUE(store.load({0, 0, 2, 4}, &out));
  ASSERT_TRUE(store.load({1, 0, 2, 4}, &out));
  // Most recent now: 1, 0, 4 (stored last). 2 and 3 fall off the file.
  ASSERT_TRUE(store.save(path));
  EXPECT_EQ(store.evictions(), 2);
  EXPECT_EQ(store.size(), 5u);  // the in-memory store is never shrunk

  BasisStore loaded;
  ASSERT_TRUE(loaded.load(path));
  EXPECT_EQ(loaded.size(), 3u);
  EXPECT_TRUE(loaded.load({0, 0, 2, 4}, &out));
  EXPECT_TRUE(loaded.load({1, 0, 2, 4}, &out));
  EXPECT_TRUE(loaded.load({4, 0, 2, 4}, &out));
  EXPECT_FALSE(loaded.load({2, 0, 2, 4}, &out));
  EXPECT_FALSE(loaded.load({3, 0, 2, 4}, &out));
}

TEST(BasisStoreDisk, ZeroCapDisablesPruning) {
  const std::string path = scratch_file("basis_nocap.bin");
  BasisStore store;
  store.set_max_disk_entries(0);
  for (std::uint64_t i = 0; i < 8; ++i) {
    store.store({i, 0, 2, 4}, make_basis(4, BasisStatus::kBasic));
  }
  ASSERT_TRUE(store.save(path));
  EXPECT_EQ(store.evictions(), 0);
  BasisStore loaded;
  ASSERT_TRUE(loaded.load(path));
  EXPECT_EQ(loaded.size(), 8u);
}

TEST(BasisStoreDisk, RepeatedCappedSavesAccumulateEvictions) {
  const std::string path = scratch_file("basis_lru_repeat.bin");
  BasisStore store;
  store.set_max_disk_entries(1);
  store.store({1, 0, 2, 4}, make_basis(4, BasisStatus::kBasic));
  store.store({2, 0, 2, 4}, make_basis(4, BasisStatus::kBasic));
  ASSERT_TRUE(store.save(path));
  EXPECT_EQ(store.evictions(), 1);
  ASSERT_TRUE(store.save(path));
  EXPECT_EQ(store.evictions(), 2);

  // The capped file still round-trips (format is unchanged by pruning).
  BasisStore loaded;
  ASSERT_TRUE(loaded.load(path));
  EXPECT_EQ(loaded.size(), 1u);
  Basis out;
  EXPECT_TRUE(loaded.load({2, 0, 2, 4}, &out));  // the most recent store
}

TEST(BasisStoreDisk, MissingFileAndMissingDirectoryAreCleanFailures) {
  BasisStore store;
  store.store({1, 2, 3, 4}, make_basis(4, BasisStatus::kBasic));
  EXPECT_FALSE(store.load(scratch_file("no_such_basis_file.bin")));
  EXPECT_EQ(store.size(), 1u);  // untouched
  EXPECT_FALSE(
      store.save(scratch_file("no_such_dir/deeper/arrow_basis.bin")));
}

TEST(BasisStoreDisk, FileInAppendsTheStoreFilename) {
  EXPECT_EQ(BasisStore::file_in("/some/dir"), "/some/dir/arrow_basis.bin");
}

TEST(BasisStoreDisk, EveryTruncationIsRejectedWithTheStoreUntouched) {
  const std::string path = scratch_file("basis_trunc.bin");
  ASSERT_TRUE(save_disk_fixture(path));
  const std::string full = read_all(path);
  ASSERT_GT(full.size(), 24u);

  const std::string trunc_path = scratch_file("basis_trunc_cut.bin");
  for (std::size_t len = 0; len < full.size(); ++len) {
    write_all(trunc_path, full.substr(0, len));
    BasisStore store;
    store.store({1, 2, 3, 4}, make_basis(4, BasisStatus::kBasic));
    EXPECT_FALSE(store.load(trunc_path)) << "len=" << len;
    EXPECT_EQ(store.size(), 1u) << "len=" << len;
  }
}

TEST(BasisStoreDisk, EverySingleByteFlipIsRejected) {
  const std::string path = scratch_file("basis_flip.bin");
  ASSERT_TRUE(save_disk_fixture(path));
  const std::string full = read_all(path);

  const std::string flip_path = scratch_file("basis_flip_cut.bin");
  for (std::size_t i = 0; i < full.size(); ++i) {
    std::string bad = full;
    bad[i] = static_cast<char>(bad[i] ^ 0x5a);
    write_all(flip_path, bad);
    BasisStore store;
    EXPECT_FALSE(store.load(flip_path)) << "byte=" << i;
    EXPECT_EQ(store.size(), 0u) << "byte=" << i;
  }
}

// Same-shaped entries under different tags (the decomposition's master bases
// beside an untagged LP of the same shape) are distinct keys end-to-end:
// store/load, seed/absorb, and the v2 disk format all carry the tag.
TEST(BasisStoreDisk, TagDistinguishesSameShapedEntries) {
  BasisStore store;
  store.store({3, 4, 5, 12, 0}, make_basis(12, BasisStatus::kBasic));
  store.store({3, 4, 5, 12, 9}, make_basis(12, BasisStatus::kNonbasicUpper));
  EXPECT_EQ(store.size(), 2u);
  Basis out;
  ASSERT_TRUE(store.load({3, 4, 5, 12, 9}, &out));
  EXPECT_EQ(out.num_basic(), 0);
  ASSERT_TRUE(store.load({3, 4, 5, 12, 0}, &out));
  EXPECT_EQ(out.num_basic(), 12);
  EXPECT_FALSE(store.load({3, 4, 5, 12, 8}, &out));

  // seed copies the tag into the cache key; absorb copies it back out.
  ScopedWarmStartCache cache;
  EXPECT_EQ(store.seed(3, 4, cache), 2);
  EXPECT_EQ(cache.entries().count({5, 12, 0}), 1u);
  EXPECT_EQ(cache.entries().count({5, 12, 9}), 1u);
  BasisStore other;
  EXPECT_EQ(other.absorb(3, 4, cache), 2);
  ASSERT_TRUE(other.load({3, 4, 5, 12, 9}, &out));
  EXPECT_EQ(out.status.size(), 12u);

  // Disk round-trip (v2 layout carries the tag per entry).
  const std::string path = scratch_file("basis_tagged.bin");
  ASSERT_TRUE(store.save(path));
  BasisStore loaded;
  ASSERT_TRUE(loaded.load(path));
  EXPECT_EQ(loaded.size(), 2u);
  ASSERT_TRUE(loaded.load({3, 4, 5, 12, 9}, &out));
  EXPECT_EQ(out.status, make_basis(12, BasisStatus::kNonbasicUpper).status);
}

TEST(BasisStoreDisk, FutureVersionIsRejectedEvenWithAValidChecksum) {
  const std::string path = scratch_file("basis_version.bin");
  ASSERT_TRUE(save_disk_fixture(path));
  std::string buf = read_all(path);
  buf[4] = 3;  // version field (little-endian u32 at offset 4)
  refresh_checksum(buf);
  write_all(path, buf);
  BasisStore store;
  EXPECT_FALSE(store.load(path));
  EXPECT_EQ(store.size(), 0u);
}

TEST(BasisStoreDisk, GarbageStatusByteIsRejectedEvenWithAValidChecksum) {
  const std::string path = scratch_file("basis_status.bin");
  ASSERT_TRUE(save_disk_fixture(path));
  std::string buf = read_all(path);
  // First status byte: magic(4) + version(4) + count(8) + key(32) + n(8).
  const std::size_t status_at = 4 + 4 + 8 + 32 + 8;
  ASSERT_LT(status_at, buf.size() - 8);
  buf[status_at] = 7;  // > kNonbasicFree
  refresh_checksum(buf);
  write_all(path, buf);
  BasisStore store;
  EXPECT_FALSE(store.load(path));
  EXPECT_EQ(store.size(), 0u);
}

TEST(BasisStoreDisk, LyingEntryCountIsRejectedEvenWithAValidChecksum) {
  const std::string path = scratch_file("basis_count.bin");
  ASSERT_TRUE(save_disk_fixture(path));
  std::string buf = read_all(path);
  for (int delta : {-1, 1}) {
    std::string bad = buf;
    bad[8] = static_cast<char>(bad[8] + delta);  // count u64 at offset 8
    refresh_checksum(bad);
    write_all(path, bad);
    BasisStore store;
    EXPECT_FALSE(store.load(path)) << "delta=" << delta;
    EXPECT_EQ(store.size(), 0u) << "delta=" << delta;
  }
}

// End-to-end: a controller run given only a basis directory (no in-process
// store) persists its bases; a second run — sharing no process state —
// warm-starts off the file alone with fewer simplex pivots and the same
// delivered traffic; corrupting the file degrades the third run to an exact
// replay of the cold one.
TEST(BasisStoreDisk, ControllerWarmStartsAcrossRunsFromTheDiskFileAlone) {
  const topo::Network net = topo::build_b4();
  util::Rng trng(7);
  traffic::TrafficParams tp;
  tp.num_matrices = 1;
  const auto tms = traffic::generate_traffic(net, tp, trng);

  ctrl::ControllerConfig config;
  config.scheme = "FFC-1";
  config.horizon_s = 1800.0;
  config.te_interval_s = 600.0;
  config.tunnels.tunnels_per_flow = 4;
  config.scenarios.probability_cutoff = 0.002;
  config.demand_scale = 0.3;

  const std::string dir = ::testing::TempDir() + "basis_dir_ctrl";
  std::filesystem::create_directories(dir);
  const std::string file = BasisStore::file_in(dir);
  std::filesystem::remove(file);  // stale state from a previous test run
  config.basis_dir = dir;

  const auto run_counting = [&](long long* iterations) {
    long long total = 0;
    ScopedSolveObserver counter([&total](const Lp&, LpSolution& sol) {
      total += sol.iterations;
    });
    util::Rng rng(5);
    const auto report = ctrl::run_controller(net, tms, {}, config, rng);
    *iterations = total;
    return report;
  };

  long long cold_iters = 0;
  const auto cold = run_counting(&cold_iters);
  EXPECT_EQ(cold.fallback_counts[0], cold.te_runs);
  EXPECT_GT(cold_iters, 0);
  ASSERT_TRUE(std::filesystem::exists(file));

  long long warm_iters = 0;
  const auto warm = run_counting(&warm_iters);
  EXPECT_EQ(warm.fallback_counts[0], warm.te_runs);
  EXPECT_LT(warm_iters, cold_iters);
  EXPECT_DOUBLE_EQ(warm.offered_gbps_seconds, cold.offered_gbps_seconds);
  EXPECT_NEAR(warm.availability(), cold.availability(), 1e-9);

  // Flip a byte in the middle: the third run must reject the file and replay
  // the cold run bit-for-bit — same pivots, same delivery.
  std::string buf = read_all(file);
  buf[buf.size() / 2] = static_cast<char>(buf[buf.size() / 2] ^ 0x5a);
  write_all(file, buf);
  long long corrupt_iters = 0;
  const auto corrupt = run_counting(&corrupt_iters);
  EXPECT_EQ(corrupt.fallback_counts[0], corrupt.te_runs);
  EXPECT_EQ(corrupt_iters, cold_iters);
  EXPECT_DOUBLE_EQ(corrupt.availability(), cold.availability());

  // The corrupted file was overwritten by that run's save; a fourth run may
  // warm-start again.
  BasisStore reloaded;
  EXPECT_TRUE(reloaded.load(file));
  EXPECT_GT(reloaded.size(), 0u);
}

// The ARROW_BASIS_DIR environment variable is the no-code-change path to the
// same behaviour (config.basis_dir overrides it when both are set).
TEST(BasisStoreDisk, ControllerHonorsArrowBasisDirEnvironmentVariable) {
  const topo::Network net = topo::build_b4();
  util::Rng trng(7);
  traffic::TrafficParams tp;
  tp.num_matrices = 1;
  const auto tms = traffic::generate_traffic(net, tp, trng);

  ctrl::ControllerConfig config;
  config.scheme = "FFC-1";
  config.horizon_s = 900.0;
  config.te_interval_s = 600.0;
  config.tunnels.tunnels_per_flow = 4;
  config.scenarios.probability_cutoff = 0.002;
  config.demand_scale = 0.3;

  const std::string dir = ::testing::TempDir() + "basis_dir_env";
  std::filesystem::create_directories(dir);
  const std::string file = BasisStore::file_in(dir);
  std::filesystem::remove(file);

  ASSERT_EQ(::setenv("ARROW_BASIS_DIR", dir.c_str(), 1), 0);
  util::Rng rng(5);
  ctrl::run_controller(net, tms, {}, config, rng);
  ASSERT_EQ(::unsetenv("ARROW_BASIS_DIR"), 0);
  EXPECT_TRUE(std::filesystem::exists(file));
}

}  // namespace
}  // namespace arrow::solver
