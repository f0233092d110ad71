// A controller run is a function of its inputs, not of the pool size.
//
// The pool size is fixed per process (ARROW_THREADS is read when the global
// pool first starts), so each thread count runs in its own child process:
// the test binary re-executes itself with a marker environment variable and
// its main() runs the child role instead of the suite (resilience/chaos.h).
// Every child runs the same B4 controller with a basis directory — the run
// that exercises the session's warm-start cache and the BasisStore — and
// the parent requires byte-identical RunReport JSON and basis files.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>

#include "controller/controller.h"
#include "resilience/chaos.h"
#include "solver/basis_store.h"
#include "topo/builders.h"
#include "traffic/traffic.h"
#include "util/fs.h"
#include "util/rng.h"

namespace arrow {
namespace {

const char* g_argv0 = "";

// Child-mode marker: its value is the child's basis directory.
constexpr const char* kBasisRunEnv = "ARROW_THREAD_COUNT_CHILD";

// The child role: `arrowctl run` on the exported B4 network and traffic
// matrix (--horizon 7200 --cuts-per-day 12), with the basis store in `dir`.
// Writes the RunReport next to the basis file.
int basis_run_child(const std::string& dir) {
  const topo::Network net = topo::build_b4();
  util::Rng tm_rng(1);
  traffic::TrafficParams tp;
  tp.num_matrices = 1;
  const auto tms = traffic::generate_traffic(net, tp, tm_rng);

  ctrl::ControllerConfig config;
  config.horizon_s = 2.0 * 3600.0;
  config.te_interval_s = 600.0;
  config.tunnels.tunnels_per_flow = 4;
  config.arrow.tickets.num_tickets = 4;
  config.scenarios.probability_cutoff = 0.002;
  config.basis_dir = dir;
  util::Rng rng(42);
  const auto trace =
      ctrl::sample_failure_trace(net, config.horizon_s, 12.0, rng);
  const auto report = ctrl::run_controller(net, tms, trace, config, rng);
  return util::write_file_atomic(dir + "/report.json",
                                 report.to_json())
             ? 0
             : 3;
}

TEST(ThreadCount, BasisDirRunIsIdenticalAtOneTwoAndEightThreads) {
  std::optional<std::string> base_report, base_basis;
  for (int threads : {1, 2, 8}) {
    const std::string dir = ::testing::TempDir() + "arrow_thread_count_" +
                            std::to_string(threads);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const int pid = resilience::spawn_self(
        g_argv0,
        {{kBasisRunEnv, dir}, {"ARROW_THREADS", std::to_string(threads)}});
    ASSERT_GT(pid, 0);
    const auto exit = resilience::wait_child(pid);
    ASSERT_FALSE(exit.signaled) << "threads=" << threads;
    ASSERT_EQ(exit.code, 0) << "threads=" << threads;

    const auto report = util::read_file(dir + "/report.json");
    const auto basis = util::read_file(solver::BasisStore::file_in(dir));
    ASSERT_TRUE(report.has_value()) << "threads=" << threads;
    ASSERT_TRUE(basis.has_value()) << "threads=" << threads;
    EXPECT_FALSE(basis->empty());
    if (!base_report) {
      base_report = report;
      base_basis = basis;
      continue;
    }
    EXPECT_EQ(*report, *base_report) << "RunReport at threads=" << threads
                                     << " differs from threads=1";
    EXPECT_TRUE(*basis == *base_basis)
        << "basis file at threads=" << threads << " is " << basis->size()
        << " bytes vs " << base_basis->size() << " at threads=1";
  }
}

}  // namespace
}  // namespace arrow

int main(int argc, char** argv) {
  if (const char* dir = std::getenv(arrow::kBasisRunEnv)) {
    return arrow::basis_run_child(dir);
  }
  arrow::g_argv0 = argv[0];
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
