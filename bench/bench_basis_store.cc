// Cross-process warm starts through the on-disk BasisStore.
//
// The bench re-executes itself twice (std::system on argv[0]) against a
// scratch ARROW_BASIS_DIR-style directory:
//
//   cold    first process; empty directory, so only the run's own session
//           cache warm-starts its later periods (its first solves start
//           from the all-slack basis); the run saves its final bases on
//           exit;
//   warm    second process; loads the cold run's file, seeds its session's
//           warm-start cache from it and must finish the identical
//           workload in fewer total simplex pivots (that is the gate);
//   corrupt third process; runs after the parent flips a byte in the middle
//           of the store file. load() must reject it and the run must
//           degrade to a cold start — same iteration count and bit-identical
//           availability as the cold phase, exit 0.
//
// Each child counts pivots with a ScopedSolveObserver (which also pins the
// controller to its inline pool, keeping the workload deterministic) and
// writes "<iterations> <availability>" into the scratch directory for the
// parent to compare. ARROW_BENCH_FAST=1 keeps the controller horizon short
// for bench-smoke; the warm phase must still not pivot more than cold.
// Results land in BENCH_basis_store.json.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_json.h"
#include "controller/controller.h"
#include "solver/basis_store.h"
#include "solver/lp.h"
#include "topo/builders.h"
#include "traffic/traffic.h"

using namespace arrow;

namespace {

bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] == '1';
}

// The workload every phase runs: identical config, identical seeds, so the
// only cross-process difference is what the basis file provides.
ctrl::ControllerReport run_workload(const std::string& basis_dir,
                                    long long* iterations) {
  const bool fast_mode = env_flag("ARROW_BENCH_FAST");
  const topo::Network net = fast_mode ? topo::build_b4() : topo::build_ibm();
  util::Rng trng(7);
  traffic::TrafficParams tp;
  // One matrix: every TE period solves the same-shaped LP, so the disk
  // basis IS each solve's optimal basis and the warm process lands on the
  // identical vertex. With rotating matrices the same-(rows, cols) key
  // would be overwritten by the last matrix solved, and a warm start from
  // it can reach an *alternate* optimum — same objective, different alloc —
  // which is legal for the store but would break this bench's availability
  // comparison.
  tp.num_matrices = 1;
  const auto tms = traffic::generate_traffic(net, tp, trng);

  ctrl::ControllerConfig config;
  config.scheme = "FFC-1";
  config.horizon_s = fast_mode ? 1800.0 : 7200.0;
  config.te_interval_s = fast_mode ? 600.0 : 300.0;
  config.tunnels.tunnels_per_flow = fast_mode ? 4 : 6;
  config.scenarios.probability_cutoff = fast_mode ? 0.002 : 0.001;
  config.demand_scale = 0.3;
  config.basis_dir = basis_dir;

  long long total = 0;
  solver::ScopedSolveObserver counter(
      [&total](const solver::Lp&, solver::LpSolution& sol) {
        total += sol.iterations;
      });
  util::Rng rng(5);
  const auto report = ctrl::run_controller(net, tms, {}, config, rng);
  *iterations = total;
  return report;
}

std::string phase_file(const std::string& dir, const std::string& phase) {
  return dir + "/phase_" + phase + ".txt";
}

int run_child(const std::string& dir, const std::string& phase) {
  long long iterations = 0;
  const auto report = run_workload(dir, &iterations);
  std::ofstream out(phase_file(dir, phase));
  if (!out) return 1;
  char line[64];
  std::snprintf(line, sizeof(line), "%lld %.17g\n", iterations,
                report.availability);
  out << line;
  return out.good() ? 0 : 1;
}

bool read_phase(const std::string& dir, const std::string& phase,
                long long* iterations, double* availability) {
  std::ifstream in(phase_file(dir, phase));
  return static_cast<bool>(in >> *iterations >> *availability);
}

int spawn_phase(const char* self, const std::string& phase) {
  ::setenv("ARROW_BENCH_BASIS_PHASE", phase.c_str(), 1);
  const std::string cmd = std::string("\"") + self + "\"";
  return std::system(cmd.c_str());
}

// Flips one byte in the middle of the store file. The trailing FNV-1a
// checksum no longer matches, so load() must reject the whole file.
bool corrupt_store_file(const std::string& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  if (!f) return false;
  f.seekg(0, std::ios::end);
  const auto size = static_cast<long long>(f.tellg());
  if (size < 24) return false;
  const auto pos = size / 2;
  f.seekg(pos);
  char byte = 0;
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x5a);
  f.seekp(pos);
  f.write(&byte, 1);
  return f.good();
}

}  // namespace

int main(int, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const bool fast_mode = env_flag("ARROW_BENCH_FAST");

  if (const char* phase = std::getenv("ARROW_BENCH_BASIS_PHASE")) {
    const char* dir = std::getenv("ARROW_BENCH_BASIS_DIR");
    if (dir == nullptr) return 1;
    return run_child(dir, phase);
  }

  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("arrow_bench_basis_store." + std::to_string(getpid()));
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "FAIL: cannot create scratch dir %s\n",
                 dir.c_str());
    return 1;
  }
  ::setenv("ARROW_BENCH_BASIS_DIR", dir.c_str(), 1);

  bench::BenchJson out("basis_store");
  out.set("topology", fast_mode ? "B4" : "IBM");
  out.set("store_file", solver::BasisStore::file_in(dir.string()));
  bool ok = true;

  long long cold_iters = 0, warm_iters = 0, corrupt_iters = 0;
  double cold_avail = 0.0, warm_avail = 0.0, corrupt_avail = 0.0;

  if (spawn_phase(argv[0], "cold") != 0 ||
      !read_phase(dir.string(), "cold", &cold_iters, &cold_avail)) {
    std::fprintf(stderr, "FAIL: cold phase did not complete\n");
    ok = false;
  }
  const std::string store_path = solver::BasisStore::file_in(dir.string());
  if (ok && !std::filesystem::exists(store_path)) {
    std::fprintf(stderr, "FAIL: cold phase left no store file at %s\n",
                 store_path.c_str());
    ok = false;
  }
  if (ok && (spawn_phase(argv[0], "warm") != 0 ||
             !read_phase(dir.string(), "warm", &warm_iters, &warm_avail))) {
    std::fprintf(stderr, "FAIL: warm phase did not complete\n");
    ok = false;
  }
  if (ok && !corrupt_store_file(store_path)) {
    std::fprintf(stderr, "FAIL: could not corrupt %s for the fallback check\n",
                 store_path.c_str());
    ok = false;
  }
  if (ok && (spawn_phase(argv[0], "corrupt") != 0 ||
             !read_phase(dir.string(), "corrupt", &corrupt_iters,
                         &corrupt_avail))) {
    std::fprintf(stderr,
                 "FAIL: corrupted store file broke the controller run\n");
    ok = false;
  }

  if (ok) {
    out.set("cold_simplex_iterations", cold_iters);
    out.set("warm_simplex_iterations", warm_iters);
    out.set("corrupt_simplex_iterations", corrupt_iters);
    out.set("pivot_reduction",
            cold_iters > 0
                ? 1.0 - static_cast<double>(warm_iters) /
                            static_cast<double>(cold_iters)
                : 0.0);
    out.set("availability", cold_avail);
    std::printf("pivots: cold %lld, warm %lld (%.1f%% fewer), "
                "corrupted-file run %lld\n",
                cold_iters, warm_iters,
                cold_iters > 0 ? 100.0 * (1.0 - static_cast<double>(warm_iters) /
                                                    static_cast<double>(cold_iters))
                               : 0.0,
                corrupt_iters);

    // The gate: the second process must warm-start off the first one's disk
    // file. Strictly fewer pivots on the full workload; never more on the
    // smoke workload.
    if (fast_mode ? warm_iters > cold_iters : warm_iters >= cold_iters) {
      std::fprintf(stderr,
                   "FAIL: warm process pivoted %lld times vs %lld cold — the "
                   "disk store provided no warm start\n",
                   warm_iters, cold_iters);
      ok = false;
    }
    // Warm starts change the trajectory, never the answer. (Tolerance, not
    // equality: the warm process reaches the same optimal basis through
    // different arithmetic, so the last ulps of x may differ.)
    if (std::abs(warm_avail - cold_avail) > 1e-9) {
      std::fprintf(stderr,
                   "FAIL: warm availability %.17g != cold %.17g\n",
                   warm_avail, cold_avail);
      ok = false;
    }
    // A corrupted file must degrade to a cold start: identical pivot count
    // and availability to the cold phase, not an error.
    if (corrupt_iters != cold_iters || corrupt_avail != cold_avail) {
      std::fprintf(stderr,
                   "FAIL: corrupted-store run (%lld pivots, %.17g) is not a "
                   "clean cold start (%lld pivots, %.17g)\n",
                   corrupt_iters, corrupt_avail, cold_iters, cold_avail);
      ok = false;
    }
  }

  fs::remove_all(dir, ec);
  out.set("status", std::string(ok ? "ok" : "fail"));
  out.write();
  return ok ? 0 : 1;
}
