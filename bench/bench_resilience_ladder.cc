// Degradation-ladder overhead: wall-clock cost and availability of a
// controller run as the forced LP-fault rate rises from 0 (every TE period
// served by the primary rung) to 1 (every period walks the full ladder).
// The interesting numbers are the counters: availability should degrade by
// fractions of a percent while the ladder absorbs hundreds of forced solver
// failures, and the run time bounds the retry overhead a production
// controller would pay under the same abuse.
//
// Uses google-benchmark for the timing harness; the per-fault-rate wall
// times and ladder counters are additionally written to
// BENCH_resilience_ladder.json (bench_json.h).
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.h"
#include "resilience/harness.h"
#include "topo/builders.h"
#include "util/parallel.h"

using namespace arrow;

namespace {

// (key, value) rows accumulated by the benchmark bodies for the JSON file.
std::vector<std::pair<std::string, double>>& json_rows() {
  static std::vector<std::pair<std::string, double>> rows;
  return rows;
}

void BM_LadderUnderFaults(benchmark::State& state) {
  static const topo::Network net = topo::build_b4();
  const double fault_rate = static_cast<double>(state.range(0)) / 100.0;

  util::Rng rng(7);
  traffic::TrafficParams tp;
  tp.num_matrices = 2;
  const auto tms = traffic::generate_traffic(net, tp, rng);

  ctrl::ControllerConfig config;
  config.scheme = "ARROW";
  config.horizon_s = 2.0 * 3600.0;
  config.te_interval_s = 600.0;
  config.tunnels.tunnels_per_flow = 4;
  config.arrow.tickets.num_tickets = 4;
  config.scenarios.probability_cutoff = 0.004;
  config.demand_scale = 0.2;

  util::Rng trace_rng(11);
  auto trace = ctrl::sample_failure_trace(net, config.horizon_s,
                                          /*cuts_per_day=*/24.0, trace_rng);
  resilience::DoubleCutParams dc;
  resilience::inject_double_cuts(trace, net, config.horizon_s, dc, trace_rng);

  resilience::FaultConfig fc;
  fc.seed = 3;
  fc.lp_fault_rate = fault_rate;
  fc.plan_drop_rate = fault_rate * 0.25;
  fc.plan_delay_rate = fault_rate * 0.5;

  resilience::FaultedRun run;
  double run_ms = 0.0;
  for (auto _ : state) {
    util::Rng run_rng(19);
    const auto t0 = std::chrono::steady_clock::now();
    run = resilience::run_with_faults(net, tms, trace, config, fc, run_rng);
    run_ms = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - t0)
                 .count();
    benchmark::DoNotOptimize(run.report.delivered_gbps_seconds);
  }
  state.counters["availability"] = run.report.availability;
  state.counters["lp_faults"] = run.counts.lp_faults;
  state.counters["degraded_periods"] = run.report.degraded_periods;
  state.counters["rwa_repairs"] = run.report.rwa_repairs;
  const std::string prefix =
      "fault_rate_" + std::to_string(state.range(0)) + "pct";
  json_rows().emplace_back(prefix + "_run_ms", run_ms);
  json_rows().emplace_back(prefix + "_availability",
                           run.report.availability);
  json_rows().emplace_back(prefix + "_lp_faults",
                           static_cast<double>(run.counts.lp_faults));
  json_rows().emplace_back(
      prefix + "_degraded_periods",
      static_cast<double>(run.report.degraded_periods));
}

}  // namespace

BENCHMARK(BM_LadderUnderFaults)
    ->Arg(0)->Arg(25)->Arg(50)->Arg(100)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  bench::BenchJson out("resilience_ladder");
  out.set("threads", util::default_thread_count());
  for (const auto& [key, v] : json_rows()) out.set(key, v);
  out.write();
  return 0;
}
