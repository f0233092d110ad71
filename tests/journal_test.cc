// Crash-consistency suite for the controller state journal (ctest label:
// chaos).
//
// Three layers of paranoia, from cheap to full-drill:
//
//   * file format: round-trips, and every corruption — truncation, bit rot,
//     a torn write, a future format version — loads as the EMPTY state (a
//     cold start), never as an error and never as garbage;
//   * injected filesystem faults: a failed open / ENOSPC / failed rename
//     leaves the previous journal on disk as the truth and is reported;
//   * process-level chaos: this binary re-executes ITSELF as a victim that
//     journals in a tight loop, gets kill -9'd mid-write, and the survivor
//     must read a complete, checksummed journal — then a restarted
//     controller under total solver-fault pressure must serve the dead
//     process's last-good plan via the carry-forward rung, not cold ECMP.
//
// This file supplies its own main(): the self-exec drills need argv[0] and
// an environment-variable child mode, which gtest_main cannot provide.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <random>
#include <string>
#include <vector>

#include "controller/controller.h"
#include "controller/journal.h"
#include "file_bytes.h"
#include "resilience/chaos.h"
#include "resilience/harness.h"
#include "topo/builders.h"
#include "traffic/traffic.h"
#include "util/clock.h"
#include "util/fs.h"
#include "util/hash.h"
#include "util/rng.h"

namespace arrow {
namespace {

const char* g_argv0 = "";

// Child-mode markers. When set, main() runs the child role instead of the
// test suite (the self-exec pattern shared with bench_basis_store).
constexpr const char* kJournalLoopEnv = "ARROW_JOURNAL_CHILD";
constexpr const char* kControllerCrashEnv = "ARROW_JOURNAL_CTRL_CHILD";

std::string temp_path(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "arrow_journal_test";
  std::filesystem::create_directories(dir);
  return dir + "/" + name;
}

ctrl::JournalPlan sample_plan() {
  ctrl::JournalPlan plan;
  plan.scheme = "ARROW";
  plan.admitted = {10.0, 20.0};
  plan.alloc = {{4.0, 6.0}, {20.0}};
  return plan;
}

std::string read_raw(const std::string& path) {
  auto bytes = util::read_file(path);
  return bytes ? *bytes : std::string();
}

void write_raw(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

bool is_empty_state(const ctrl::JournalState& s) {
  return !s.in_flight && !s.has_plan && s.run_id.empty() && s.topo_hash == 0 &&
         s.scenario_hash == 0;
}

// The controller fixture every journal/controller test (and the crash-drill
// child) builds — it must be byte-for-byte the same in parent and child so
// the journaled topology/scenario hashes line up across processes.
struct Fixture {
  topo::Network net;
  std::vector<traffic::TrafficMatrix> tms;
  ctrl::ControllerConfig config;

  Fixture() : net(topo::build_b4()) {
    util::Rng rng(7);
    traffic::TrafficParams tp;
    tp.num_matrices = 2;
    tms = traffic::generate_traffic(net, tp, rng);
    config.horizon_s = 2.0 * 3600.0;
    config.te_interval_s = 600.0;
    config.tunnels.tunnels_per_flow = 4;
    config.arrow.tickets.num_tickets = 4;
    config.scenarios.probability_cutoff = 0.002;
    config.demand_scale = 0.5;
    config.scheme = "ARROW";
  }
};

// --- round trip --------------------------------------------------------------

TEST(Journal, MissingFileLoadsEmpty) {
  ctrl::StateJournal j(temp_path("nonexistent.bin"));
  EXPECT_TRUE(is_empty_state(j.load()));
}

TEST(Journal, RoundTripsStateAndAccumulates) {
  const std::string path = temp_path("roundtrip.bin");
  std::filesystem::remove(path);
  ctrl::StateJournal j(path);
  ASSERT_TRUE(j.begin_run("run-1", 111, 222));
  ASSERT_TRUE(j.record_plan(sample_plan()));

  ctrl::JournalState got = ctrl::StateJournal(path).load();
  EXPECT_TRUE(got.in_flight);
  EXPECT_TRUE(got.has_plan);
  EXPECT_EQ(got.run_id, "run-1");
  EXPECT_EQ(got.topo_hash, 111u);
  EXPECT_EQ(got.scenario_hash, 222u);
  EXPECT_EQ(got.plan.scheme, "ARROW");
  EXPECT_EQ(got.plan.admitted, sample_plan().admitted);
  EXPECT_EQ(got.plan.alloc, sample_plan().alloc);

  // end_run clears the in-flight marker but keeps the plan: a cleanly
  // stopped controller still leaves its last-good plan for the next one.
  ASSERT_TRUE(j.end_run());
  got = ctrl::StateJournal(path).load();
  EXPECT_FALSE(got.in_flight);
  EXPECT_TRUE(got.has_plan);
  EXPECT_EQ(j.writes(), 3);
  EXPECT_EQ(j.write_errors(), 0);
}

// The exact bytes of a journal with a plan: header, flags, run id, hashes,
// the plan (a -0.0 admitted rate and an empty tunnel list included) and the
// checksum trailer. Any change to the file format must fail here.
TEST(Journal, FileBytesArePinned) {
  const std::string path = temp_path("pinned.bin");
  std::filesystem::remove(path);
  ctrl::StateJournal j(path);
  ASSERT_TRUE(j.begin_run("pin-run", 0x0123456789abcdefULL,
                          0xfedcba9876543210ULL));
  ctrl::JournalPlan plan;
  plan.scheme = "ARROW";
  plan.admitted = {12.5, -0.0};
  plan.alloc = {{10.0, 2.5}, {}};
  ASSERT_TRUE(j.record_plan(plan));
  EXPECT_EQ(testing::to_hex(read_raw(path)),
            "41524a4c" "01000000"                      // magic, version
            "03"                                       // in_flight|has_plan
            "0700000000000000" "70696e2d72756e"        // run id
            "efcdab8967452301" "1032547698badcfe"      // topo, scenario hash
            "0500000000000000" "4152524f57"            // scheme
            "0200000000000000"                         // flows
            "0000000000002940" "0200000000000000"      // 12.5, 2 tunnels
            "0000000000002440" "0000000000000440"      // 10.0, 2.5
            "0000000000000080" "0000000000000000"      // -0.0, 0 tunnels
            "33d194e2faf0c53b");                       // FNV-1a trailer

  const ctrl::JournalState got = ctrl::StateJournal(path).load();
  EXPECT_TRUE(got.in_flight);
  EXPECT_EQ(got.run_id, "pin-run");
  EXPECT_EQ(got.plan.alloc, plan.alloc);
  EXPECT_TRUE(std::signbit(got.plan.admitted[1]));
}

// The journal FileBytesArePinned pins, written to `path`: the seed file of
// the fuzz test.
void write_fuzz_seed(const std::string& path) {
  std::filesystem::remove(path);
  ctrl::StateJournal j(path);
  ASSERT_TRUE(j.begin_run("pin-run", 0x0123456789abcdefULL,
                          0xfedcba9876543210ULL));
  ctrl::JournalPlan plan;
  plan.scheme = "ARROW";
  plan.admitted = {12.5, -0.0};
  plan.alloc = {{10.0, 2.5}, {}};
  ASSERT_TRUE(j.record_plan(plan));
}

// Seeded mutants of the pinned file (tests/file_bytes.h: bit flips,
// truncations, spliced spans and lying counts, every other one re-signed so
// that the bounds checks, not the checksum, must refuse it). Each loads as
// the empty state (a cold start) or as a well-formed one — one admitted rate
// per flow, no plan fields without has_plan — and never crashes (the chaos
// label runs under ASan/UBSan).
TEST(Journal, LoadSurvivesMutatedFiles) {
  const std::string seed_path = temp_path("fuzz_seed.bin");
  write_fuzz_seed(seed_path);
  const std::string seed = read_raw(seed_path);
  // Offsets of the run id, scheme, flow and both tunnel counts.
  const std::vector<std::size_t> counts = {9, 40, 53, 69, 101};
  const std::string path = temp_path("fuzz_mutant.bin");
  std::mt19937_64 rng(0x5eedULL);
  int accepted = 0;
  int refused = 0;
  for (int i = 0; i < 4000; ++i) {
    const std::string bytes = testing::mutant(seed, counts, rng, i % 2 == 0);
    write_raw(path, bytes);
    const ctrl::JournalState got = ctrl::StateJournal(path).load();
    if (is_empty_state(got)) {
      ++refused;
      EXPECT_TRUE(got.plan.scheme.empty() && got.plan.alloc.empty() &&
                  got.plan.admitted.empty());
      continue;
    }
    ++accepted;
    EXPECT_EQ(got.plan.admitted.size(), got.plan.alloc.size())
        << testing::to_hex(bytes);
    if (!got.has_plan) {
      EXPECT_TRUE(got.plan.scheme.empty() && got.plan.alloc.empty())
          << testing::to_hex(bytes);
    }
  }
  // Both outcomes are exercised.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(refused, 1000);
}

// --- corruption degrades to the empty state ---------------------------------

class JournalCorruption : public ::testing::Test {
 protected:
  JournalCorruption() : path_(temp_path("corrupt.bin")) {
    std::filesystem::remove(path_);
    ctrl::StateJournal j(path_);
    j.begin_run("run-c", 7, 9);
    j.record_plan(sample_plan());
    good_ = read_raw(path_);
  }
  std::string path_;
  std::string good_;
};

TEST_F(JournalCorruption, TruncationLoadsEmpty) {
  for (std::size_t keep : {good_.size() - 1, good_.size() / 2, std::size_t{5},
                           std::size_t{0}}) {
    write_raw(path_, good_.substr(0, keep));
    EXPECT_TRUE(is_empty_state(ctrl::StateJournal(path_).load()))
        << "kept " << keep << " of " << good_.size() << " bytes";
  }
}

TEST_F(JournalCorruption, BitRotLoadsEmpty) {
  // Flip one bit at a spread of offsets (header, payload, trailer).
  for (std::size_t at : {std::size_t{0}, std::size_t{9}, good_.size() / 2,
                         good_.size() - 1}) {
    std::string bad = good_;
    bad[at] = static_cast<char>(bad[at] ^ 0x10);
    write_raw(path_, bad);
    EXPECT_TRUE(is_empty_state(ctrl::StateJournal(path_).load()))
        << "bit flipped at offset " << at;
  }
}

TEST_F(JournalCorruption, FutureVersionLoadsEmptyEvenWithValidChecksum) {
  // Bump the format version (bytes 4..7, little-endian) and RE-SIGN the
  // file, so only the version gate — not the checksum — can reject it.
  std::string bad = good_;
  bad[4] = 99;
  const std::uint64_t sum =
      util::Fnv1a().bytes(bad.data(), bad.size() - 8).value();
  for (int i = 0; i < 8; ++i) {
    bad[bad.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>((sum >> (8 * i)) & 0xff);
  }
  write_raw(path_, bad);
  EXPECT_TRUE(is_empty_state(ctrl::StateJournal(path_).load()));
}

TEST_F(JournalCorruption, WrongMagicLoadsEmptyEvenWithValidChecksum) {
  std::string bad = good_;
  bad[0] = 'X';
  const std::uint64_t sum =
      util::Fnv1a().bytes(bad.data(), bad.size() - 8).value();
  for (int i = 0; i < 8; ++i) {
    bad[bad.size() - 8 + static_cast<std::size_t>(i)] =
        static_cast<char>((sum >> (8 * i)) & 0xff);
  }
  write_raw(path_, bad);
  EXPECT_TRUE(is_empty_state(ctrl::StateJournal(path_).load()));
}

// --- injected filesystem faults ----------------------------------------------

class JournalFsFaults : public ::testing::Test {
 protected:
  JournalFsFaults() : path_(temp_path("fsfaults.bin")), journal_(path_) {
    std::filesystem::remove(path_);
    journal_.begin_run("run-f", 1, 2);
    journal_.record_plan(sample_plan());
    good_ = read_raw(path_);
  }
  std::string path_;
  ctrl::StateJournal journal_;
  std::string good_;
};

TEST_F(JournalFsFaults, FailedOpenKeepsOldFileAndReports) {
  util::FsFaults f;
  f.fail_open = true;
  util::ScopedFsFaults scoped(f);
  ctrl::JournalPlan p = sample_plan();
  p.scheme = "never-lands";
  EXPECT_FALSE(journal_.record_plan(p));
  EXPECT_EQ(journal_.write_errors(), 1);
  EXPECT_EQ(read_raw(path_), good_);  // old file still the truth
}

TEST_F(JournalFsFaults, EnospcShortWriteKeepsOldFile) {
  util::FsFaults f;
  f.write_cap_bytes = 10;  // disk full after 10 bytes
  util::ScopedFsFaults scoped(f);
  EXPECT_FALSE(journal_.end_run());
  EXPECT_EQ(journal_.write_errors(), 1);
  EXPECT_EQ(read_raw(path_), good_);
  EXPECT_TRUE(ctrl::StateJournal(path_).load().in_flight);
}

TEST_F(JournalFsFaults, FailedFsyncKeepsOldFileAndReports) {
  // A write that cannot be made durable (fsync fails: dying disk, full
  // thin-provisioned volume) must be treated exactly like a failed write:
  // reported, and the previous journal stays the truth. Before
  // write_file_atomic fsynced at all, this fault was silently invisible.
  util::FsFaults f;
  f.fail_fsync = true;
  util::ScopedFsFaults scoped(f);
  EXPECT_FALSE(journal_.end_run());
  EXPECT_EQ(journal_.write_errors(), 1);
  EXPECT_EQ(read_raw(path_), good_);
  EXPECT_TRUE(ctrl::StateJournal(path_).load().in_flight);
}

TEST_F(JournalFsFaults, FailedRenameKeepsOldFile) {
  util::FsFaults f;
  f.fail_rename = true;
  util::ScopedFsFaults scoped(f);
  EXPECT_FALSE(journal_.end_run());
  EXPECT_EQ(journal_.write_errors(), 1);
  EXPECT_EQ(read_raw(path_), good_);
}

TEST_F(JournalFsFaults, TornWriteIsReportedAndRejectedOnLoad) {
  // The nastiest case: a truncated image lands under the REAL name. The
  // write must report failure and the loader must refuse the torn file —
  // degrading to a cold start, never to garbage state.
  {
    util::FsFaults f;
    f.write_cap_bytes = 24;
    f.torn_write = true;
    util::ScopedFsFaults scoped(f);
    EXPECT_FALSE(journal_.end_run());
    EXPECT_EQ(journal_.write_errors(), 1);
  }
  EXPECT_NE(read_raw(path_), good_);
  EXPECT_TRUE(is_empty_state(ctrl::StateJournal(path_).load()));
}

// --- controller integration --------------------------------------------------

TEST(JournalController, RunWritesJournalAndNextRunRecoversUnderFaults) {
  const std::string dir = ::testing::TempDir() + "arrow_journal_ctrl";
  std::filesystem::create_directories(dir);
  const std::string file = ctrl::StateJournal::file_in(dir);
  std::filesystem::remove(file);

  Fixture fx;
  fx.config.journal_dir = dir;

  // Run 1, fault-free: begin_run + one record_plan per solved matrix +
  // end_run all land on disk.
  {
    util::Rng rng(5);
    const auto report = ctrl::run_controller(fx.net, fx.tms, {}, fx.config, rng);
    EXPECT_FALSE(report.journal_recovered);
    EXPECT_EQ(report.journal_writes, 2 + static_cast<int>(fx.tms.size()));
    EXPECT_EQ(report.journal_write_errors, 0);
  }
  const ctrl::JournalState after1 = ctrl::StateJournal(file).load();
  ASSERT_TRUE(after1.has_plan);
  EXPECT_FALSE(after1.in_flight);  // clean shutdown

  // Run 2, every LP solve forced to fail: without the journal this run's
  // first matrix would land on cold ECMP (no last-good plan exists yet);
  // with it, every matrix must be served by carry-forward from the journaled
  // plan of run 1.
  resilience::FaultConfig storm;
  storm.seed = 11;
  storm.lp_fault_rate = 1.0;
  util::Rng rng(5);
  const auto drill =
      resilience::run_with_faults(fx.net, fx.tms, {}, fx.config, storm, rng);
  const auto& r = drill.report;
  EXPECT_TRUE(r.journal_recovered);
  EXPECT_FALSE(r.journal_prior_in_flight);
  ASSERT_GT(r.te_runs, 0);
  for (ctrl::Rung rung : r.rung_by_matrix) {
    EXPECT_EQ(rung, ctrl::Rung::kCarryForward);
  }
  EXPECT_EQ(r.fallback_counts[static_cast<int>(ctrl::Rung::kEcmp)], 0);
}

TEST(JournalController, ForeignJournalIsNotAdopted) {
  // A journal whose hashes do not match this network must not seed the
  // ladder — and a crash before the first record_plan must not leave the
  // foreign plan blessed with OUR hashes.
  const std::string dir = ::testing::TempDir() + "arrow_journal_foreign";
  std::filesystem::create_directories(dir);
  const std::string file = ctrl::StateJournal::file_in(dir);
  std::filesystem::remove(file);
  {
    ctrl::StateJournal foreign(file);
    foreign.begin_run("foreign-run", 0xdead, 0xbeef);
    foreign.record_plan(sample_plan());
  }

  Fixture fx;
  fx.config.journal_dir = dir;
  util::Rng rng(5);
  const auto report = ctrl::run_controller(fx.net, fx.tms, {}, fx.config, rng);
  EXPECT_FALSE(report.journal_recovered);
  EXPECT_TRUE(report.journal_prior_in_flight);  // the foreign writer died

  // After our run the journal must hold OUR plan under OUR hashes, not the
  // foreign plan re-stamped.
  const ctrl::JournalState after = ctrl::StateJournal(file).load();
  ASSERT_TRUE(after.has_plan);
  EXPECT_NE(after.topo_hash, 0xdeadu);
  EXPECT_NE(after.plan.admitted, sample_plan().admitted);
}

// --- process-level chaos drills ----------------------------------------------

bool wait_for_file(const std::string& path, double timeout_s) {
  for (double waited = 0.0; waited < timeout_s; waited += 0.01) {
    if (std::filesystem::exists(path)) return true;
    util::sleep_s(0.01);
  }
  return false;
}

// Child role 1: journal plans in a tight loop forever (killed by the parent).
int journal_loop_child(const std::string& path) {
  ctrl::StateJournal j(path);
  ctrl::JournalPlan plan = sample_plan();
  plan.scheme = "child";
  if (!j.begin_run("child-run", 1, 2)) return 3;
  if (!j.record_plan(plan)) return 3;
  if (!util::write_file_atomic(path + ".ready", "ok")) return 3;
  for (std::uint64_t i = 0;; ++i) {
    plan.admitted[0] = static_cast<double>(i);
    j.record_plan(plan);
  }
}

TEST(JournalChaos, KillNineMidWriteLeavesACompleteJournal) {
  const std::string path = temp_path("kill9.bin");
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".ready");

  const int pid = resilience::spawn_self(g_argv0, {{kJournalLoopEnv, path}});
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(wait_for_file(path + ".ready", 30.0));
  // The child is now rewriting the journal as fast as it can; SIGKILL lands
  // mid-write with overwhelming probability.
  ASSERT_TRUE(resilience::kill_child(pid, /*delay_s=*/0.05));
  const auto exit = resilience::wait_child(pid);
  EXPECT_TRUE(exit.signaled);
  EXPECT_EQ(exit.code, 9);

  // Atomic temp+rename means the survivor reads a COMPLETE journal — some
  // fully-written version, in-flight marker set, plan intact. Never a torn
  // file, never garbage.
  const ctrl::JournalState got = ctrl::StateJournal(path).load();
  EXPECT_TRUE(got.in_flight);  // the writer died mid-run
  ASSERT_TRUE(got.has_plan);
  EXPECT_EQ(got.run_id, "child-run");
  EXPECT_EQ(got.plan.scheme, "child");
  ASSERT_EQ(got.plan.admitted.size(), 2u);
  ASSERT_EQ(got.plan.alloc.size(), 2u);
  EXPECT_EQ(got.plan.alloc[0].size(), 2u);
  EXPECT_EQ(got.plan.alloc[1].size(), 1u);
}

// Child role 2: the full acceptance drill's victim. Runs a real controller
// with the journal enabled (identical fixture to the parent), then reopens
// the journal as a second in-flight run and rewrites the last-good plan
// forever — the exact on-disk footprint of a controller murdered mid-period.
int controller_crash_child(const std::string& dir) {
  Fixture fx;
  fx.config.journal_dir = dir;
  util::Rng rng(5);
  (void)ctrl::run_controller(fx.net, fx.tms, {}, fx.config, rng);

  ctrl::StateJournal j(ctrl::StateJournal::file_in(dir));
  ctrl::JournalState st = j.load();
  if (!st.has_plan) return 3;
  j.reset(st);
  if (!j.begin_run("crash-run", st.topo_hash, st.scenario_hash)) return 3;
  if (!util::write_file_atomic(dir + "/ready", "ok")) return 3;
  for (;;) j.record_plan(st.plan);
}

TEST(JournalChaos, RestartedControllerRecoversFromAKilledPredecessor) {
  const std::string dir = ::testing::TempDir() + "arrow_journal_crash";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  const int pid = resilience::spawn_self(g_argv0, {{kControllerCrashEnv, dir}});
  ASSERT_GT(pid, 0);
  // The child runs a full controller pass first; give it generous headroom.
  ASSERT_TRUE(wait_for_file(dir + "/ready", 120.0));
  ASSERT_TRUE(resilience::kill_child(pid, /*delay_s=*/0.05));
  const auto exit = resilience::wait_child(pid);
  ASSERT_TRUE(exit.signaled);

  // The survivor: same network, every solve faulted. It must adopt the dead
  // process's journal (in-flight marker and all) and serve its last-good
  // plan via carry-forward — the acceptance criterion for this subsystem.
  Fixture fx;
  fx.config.journal_dir = dir;
  resilience::FaultConfig storm;
  storm.seed = 13;
  storm.lp_fault_rate = 1.0;
  util::Rng rng(5);
  const auto drill =
      resilience::run_with_faults(fx.net, fx.tms, {}, fx.config, storm, rng);
  const auto& r = drill.report;
  EXPECT_TRUE(r.journal_recovered);
  EXPECT_TRUE(r.journal_prior_in_flight);
  ASSERT_GT(r.te_runs, 0);
  EXPECT_EQ(r.rung_by_matrix[0], ctrl::Rung::kCarryForward);
  EXPECT_EQ(r.fallback_counts[static_cast<int>(ctrl::Rung::kEcmp)], 0);
}

}  // namespace
}  // namespace arrow

int main(int argc, char** argv) {
  if (const char* path = std::getenv(arrow::kJournalLoopEnv)) {
    return arrow::journal_loop_child(path);
  }
  if (const char* dir = std::getenv(arrow::kControllerCrashEnv)) {
    return arrow::controller_crash_child(dir);
  }
  arrow::g_argv0 = argv[0];
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
