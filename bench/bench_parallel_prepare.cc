// Serial-vs-parallel offline ARROW stage + warm-start pivot savings.
//
// Part 1: prepare_arrow (per-scenario restoration RWA + LotteryTicket
// rounding) on a ThreadPool(1) versus the full pool. The two runs use the
// same seed, so the counter-seeded scenario streams must produce
// bit-identical artifacts — any divergence is a determinism bug and the
// bench exits nonzero. The >= 3x speedup check only engages on machines
// with >= 8 hardware threads (a 1-core CI box can verify determinism but
// not parallel scaling).
//
// Part 2: a small availability sweep with and without warm-started simplex
// bases. Same availability curve, fewer pivots; the reduction is reported
// (target: >= 30% on the scale-grid chain).
//
// Results land in BENCH_parallel_prepare.json (see bench_json.h).
// ARROW_BENCH_FAST=1 shrinks the instance (fewer tickets, shorter scale
// grid) for the bench-smoke ctest target; the determinism and warm-start
// checks still run, the absolute-speedup gate does not (too little work to
// saturate the pool).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench_json.h"
#include "sim/sweep.h"
#include "te/arrow.h"
#include "te/basic.h"
#include "topo/builders.h"
#include "traffic/traffic.h"
#include "util/parallel.h"

using namespace arrow;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Order-sensitive fold over every ticket's integral waves and fractional
// gbps; equal checksums across runs mean equal artifacts for our purposes.
double prepared_checksum(const te::ArrowPrepared& prepared) {
  double sum = 0.0;
  for (std::size_t q = 0; q < prepared.tickets.size(); ++q) {
    const auto& set = prepared.tickets[q];
    sum += static_cast<double>(q + 1) *
           static_cast<double>(set.failed_links.size());
    for (std::size_t z = 0; z < set.tickets.size(); ++z) {
      const auto& t = set.tickets[z];
      sum += static_cast<double>((q + 1) * (z + 2)) *
             (t.total_gbps() + static_cast<double>(t.total_waves()));
    }
    sum += prepared.rwa[q].total_restored_waves;
  }
  return sum;
}

bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] == '1';
}

bool identical(const te::ArrowPrepared& a, const te::ArrowPrepared& b) {
  if (a.tickets.size() != b.tickets.size()) return false;
  for (std::size_t q = 0; q < a.tickets.size(); ++q) {
    if (a.tickets[q].failed_links != b.tickets[q].failed_links) return false;
    const auto& ta = a.tickets[q].tickets;
    const auto& tb = b.tickets[q].tickets;
    if (ta.size() != tb.size()) return false;
    for (std::size_t z = 0; z < ta.size(); ++z) {
      if (ta[z].waves != tb[z].waves || ta[z].gbps != tb[z].gbps ||
          ta[z].path_waves != tb[z].path_waves) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main() {
  const bool fast_mode = env_flag("ARROW_BENCH_FAST");
  const topo::Network net = topo::build_ibm();
  util::Rng rng(2024);
  traffic::TrafficParams tp;
  tp.num_matrices = 1;
  const auto ms = traffic::generate_traffic(net, tp, rng);
  scenario::ScenarioParams sp;
  sp.probability_cutoff = 0.001;
  auto scen = scenario::generate_scenarios(net, sp, rng);
  const auto scenarios = scenario::remove_disconnecting(net, scen.scenarios);
  te::TunnelParams tun;
  tun.tunnels_per_flow = 8;
  te::TeInput input(net, ms[0], scenarios, tun);
  input.scale_demands(te::max_satisfiable_scale(input) * 0.6);
  te::ArrowParams params;
  params.tickets.num_tickets = fast_mode ? 4 : 10;

  bench::BenchJson out("parallel_prepare");
  out.set("topology", std::string("IBM"));
  out.set("scenarios", static_cast<long long>(scenarios.size()));
  out.set("tickets_per_scenario", params.tickets.num_tickets);

  // --- Part 1: serial vs parallel prepare --------------------------------
  const int n_threads = util::default_thread_count();
  util::ThreadPool serial_pool(1);
  util::ThreadPool wide_pool(n_threads);
  out.set("threads", n_threads);
  out.set("hardware_concurrency",
          static_cast<long long>(std::thread::hardware_concurrency()));

  util::Rng rng_serial(7);
  auto t0 = Clock::now();
  const auto prepared_serial =
      te::prepare_arrow(input, params, rng_serial, serial_pool);
  const double serial_ms = ms_since(t0);

  util::Rng rng_parallel(7);
  t0 = Clock::now();
  const auto prepared_parallel =
      te::prepare_arrow(input, params, rng_parallel, wide_pool);
  const double parallel_ms = ms_since(t0);

  const double checksum = prepared_checksum(prepared_serial);
  out.set("prepare_serial_ms", serial_ms);
  out.set("prepare_parallel_ms", parallel_ms);
  const double speedup = parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0;
  out.set("prepare_speedup", speedup);
  out.set("prepare_checksum", checksum);

  bool ok = true;
  if (!identical(prepared_serial, prepared_parallel)) {
    std::fprintf(stderr,
                 "FAIL: serial and %d-thread prepare_arrow artifacts differ "
                 "(checksums %.17g vs %.17g)\n",
                 n_threads, checksum, prepared_checksum(prepared_parallel));
    ok = false;
  } else {
    std::printf("prepare: serial %.1f ms, %d threads %.1f ms (%.2fx), "
                "artifacts identical\n",
                serial_ms, n_threads, parallel_ms, speedup);
  }
  if (!fast_mode && std::thread::hardware_concurrency() >= 8 &&
      n_threads >= 8 && speedup < 3.0) {
    std::fprintf(stderr,
                 "FAIL: %.2fx speedup at %d threads (expected >= 3x on >= 8 "
                 "hardware threads)\n",
                 speedup, n_threads);
    ok = false;
  }

  // --- Part 2: warm vs cold sweep ----------------------------------------
  sim::SweepParams sweep;
  sweep.scales = {0.5, 0.6, 0.7, 0.8, 0.9, 1.0};
  if (fast_mode) sweep.scales = {0.5, 0.7};
  // The offline stage was measured above.
  sweep.schemes = {"FFC-1", "ECMP"};
  sweep.tunnels = tun;

  sweep.warm_start = false;
  util::Rng rng_cold(11);
  t0 = Clock::now();
  const auto cold =
      sim::run_sweep(net, ms, scenarios, sweep, rng_cold, serial_pool);
  const double cold_ms = ms_since(t0);

  sweep.warm_start = true;
  util::Rng rng_warm(11);
  t0 = Clock::now();
  const auto warm =
      sim::run_sweep(net, ms, scenarios, sweep, rng_warm, serial_pool);
  const double warm_ms = ms_since(t0);

  long long cold_iters = 0, warm_iters = 0;
  for (const auto& [scheme, it] : cold.simplex_iterations) cold_iters += it;
  for (const auto& [scheme, it] : warm.simplex_iterations) warm_iters += it;
  const double reduction =
      cold_iters > 0
          ? 100.0 * static_cast<double>(cold_iters - warm_iters) /
                static_cast<double>(cold_iters)
          : 0.0;
  out.set("sweep_cold_ms", cold_ms);
  out.set("sweep_warm_ms", warm_ms);
  out.set("sweep_cold_iterations", cold_iters);
  out.set("sweep_warm_iterations", warm_iters);
  out.set("warm_start_iteration_reduction_pct", reduction);

  double curve_gap = 0.0;
  for (const auto& [scheme, values] : cold.availability) {
    const auto& wv = warm.availability.at(scheme);
    for (std::size_t i = 0; i < values.size(); ++i) {
      const double d = values[i] - wv[i];
      curve_gap = std::max(curve_gap, d < 0 ? -d : d);
    }
  }
  out.set("warm_vs_cold_availability_gap", curve_gap);
  std::printf("sweep: cold %lld pivots (%.1f ms), warm %lld pivots (%.1f ms)"
              " — %.1f%% fewer, availability gap %.3g\n",
              cold_iters, cold_ms, warm_iters, warm_ms, reduction, curve_gap);
  if (warm_iters >= cold_iters) {
    std::fprintf(stderr,
                 "FAIL: warm-started sweep took %lld pivots vs %lld cold\n",
                 warm_iters, cold_iters);
    ok = false;
  }

  out.set("status", std::string(ok ? "ok" : "fail"));
  out.write();
  return ok ? 0 : 1;
}
