// Fault drill: the same day-in-the-life trace as wan_controller, but run
// under an escalating seeded fault regime — forced LP failures, dropped and
// delayed restoration plans, perturbed matrices, and injected concurrent
// double-cuts. The point of the exercise: run_controller never throws, every
// degraded TE period is attributed to a ladder rung, and availability decays
// gracefully instead of cliffing.
//
//   $ ./build/examples/fault_drill [seed]
//
// Act two drills the fault the ladder alone cannot absorb — a controller
// crash. A restarted process has no last-good plan in memory, so its first
// faulted period would fall to cold ECMP; with the crash-consistency
// journal it recovers the dead run's plan and degrades to carry-forward
// instead.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "controller/journal.h"
#include "resilience/harness.h"
#include "topo/builders.h"
#include "util/table.h"

using namespace arrow;

namespace {

std::string rung_summary(const ctrl::ControllerReport& r) {
  std::string out;
  for (int i = 0; i < ctrl::kNumRungs; ++i) {
    if (r.fallback_counts[static_cast<std::size_t>(i)] == 0) continue;
    if (!out.empty()) out += " ";
    out += std::string(ctrl::to_string(static_cast<ctrl::Rung>(i))) + "x" +
           std::to_string(r.fallback_counts[static_cast<std::size_t>(i)]);
  }
  return out.empty() ? "-" : out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1
      ? static_cast<std::uint64_t>(std::atoll(argv[1])) : 42;
  const topo::Network net = topo::build_b4();

  util::Rng rng(20210823);
  traffic::TrafficParams tp;
  tp.num_matrices = 4;
  const auto tms = traffic::generate_traffic(net, tp, rng);

  ctrl::ControllerConfig config;
  config.scheme = "ARROW";
  config.horizon_s = 24.0 * 3600.0;
  config.te_interval_s = 600.0;
  config.tunnels.tunnels_per_flow = 4;
  config.arrow.tickets.num_tickets = 4;
  // Raised cutoff: the rarer fibers get no precomputed plan, so some cuts
  // arrive genuinely unplanned and exercise the emergency restoration path.
  config.scenarios.probability_cutoff = 0.004;
  config.demand_scale = 0.2;

  util::Rng trace_rng(100 + seed);
  auto trace = ctrl::sample_failure_trace(net, config.horizon_s,
                                          /*cuts_per_day=*/12.0, trace_rng);
  resilience::DoubleCutParams dc;
  dc.pairs = 2;
  dc.gap_s = 120.0;
  dc.repair_s = 3600.0;
  resilience::inject_double_cuts(trace, net, config.horizon_s, dc, trace_rng);

  std::printf("B4, one simulated day, %zu cuts (2 injected double-cuts), "
              "seed %llu\n\n", trace.size(),
              static_cast<unsigned long long>(seed));

  util::Table table({"fault regime", "availability", "rungs", "degraded",
                     "lp faults", "unplanned", "emergency", "dropped"});
  const auto drill = [&](const char* label, double lp_rate, double drop_rate,
                         double delay_rate, double jitter) {
    resilience::FaultConfig fc;
    fc.seed = seed;
    fc.lp_fault_rate = lp_rate;
    fc.plan_drop_rate = drop_rate;
    fc.plan_delay_rate = delay_rate;
    fc.plan_delay_s = 30.0;
    fc.tm_jitter_sigma = jitter;
    util::Rng run_rng(7);  // identical stream across regimes
    const auto run =
        resilience::run_with_faults(net, tms, trace, config, fc, run_rng);
    const auto& r = run.report;
    table.add_row({label, util::Table::pct(r.availability, 4),
                   rung_summary(r), std::to_string(r.degraded_periods),
                   std::to_string(run.counts.lp_faults) + "/" +
                       std::to_string(run.counts.solves_observed),
                   std::to_string(r.unplanned_cuts),
                   std::to_string(r.emergency_restorations),
                   std::to_string(r.plans_dropped)});
  };
  drill("none (baseline)", 0.0, 0.0, 0.0, 0.0);
  drill("lp faults 25%", 0.25, 0.0, 0.0, 0.0);
  drill("lp faults 75%", 0.75, 0.0, 0.0, 0.0);
  drill("+ plan drop/delay", 0.75, 0.2, 0.3, 0.0);
  drill("+ 10% TM jitter", 0.75, 0.2, 0.3, 0.1);
  std::fputs(table.to_string().c_str(), stdout);
  std::printf(
      "\nEvery degraded TE period is served by a named ladder rung "
      "(primary > relaxed-retry > ffc-fallback > carry-forward > ecmp); "
      "'lp faults' counts forced solver failures the ladder absorbed.\n");

  // --- act two: controller crash + journal recovery ------------------------
  const std::string jdir = "/tmp/arrow_fault_drill_journal";
  std::filesystem::create_directories(jdir);
  std::filesystem::remove(ctrl::StateJournal::file_in(jdir));

  ctrl::ControllerConfig jconfig = config;
  jconfig.horizon_s = 2.0 * 3600.0;  // a short pre-crash shift
  {
    // Shift one: a healthy controller journals its plans, then "crashes"
    // (this process simply moves on — the journal is what survives).
    jconfig.journal_dir = jdir;
    util::Rng run_rng(7);
    (void)ctrl::run_controller(net, tms, {}, jconfig, run_rng);
  }
  resilience::FaultConfig total;
  total.seed = seed;
  total.lp_fault_rate = 1.0;  // the restart cannot solve anything
  util::Table table2({"restarted controller", "first-period rung",
                      "cold-ECMP periods", "availability"});
  const auto restart = [&](const char* label, const std::string& dir) {
    ctrl::ControllerConfig cfg = jconfig;
    cfg.journal_dir = dir;
    util::Rng run_rng(7);
    const auto run = resilience::run_with_faults(net, tms, {}, cfg, total,
                                                 run_rng);
    const auto& r = run.report;
    table2.add_row(
        {label,
         r.rung_by_matrix.empty()
             ? "-"
             : ctrl::to_string(r.rung_by_matrix.front()),
         std::to_string(
             r.fallback_counts[static_cast<int>(ctrl::Rung::kEcmp)]),
         util::Table::pct(r.availability, 4)});
  };
  restart("without journal", "");
  restart("with journal (recovered)", jdir);
  std::printf("\ncrash recovery: every LP solve fails after the restart; the "
              "journaled last-good plan turns cold ECMP into carry-forward\n");
  std::fputs(table2.to_string().c_str(), stdout);
  return 0;
}
