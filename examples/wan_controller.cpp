// A day in the life of a WAN: replay the same fiber-cut trace against every
// registered TE scheme and compare delivered traffic, downtime, and the
// transient loss during restoration (ARROW with noise loading vs legacy
// amplifiers).
//
//   $ ./build/examples/wan_controller [cuts_per_day] [journal_dir]
//
// This is ARROW as a *system* (Fig. 8): periodic TE runs under an enforced
// wall-clock budget (te_budget_s — a solve that outruns its share degrades
// down the ladder instead of stalling the period), precomputed restoration
// plans, and second-by-second accounting while wavelengths come back one at
// a time. With a journal_dir the ARROW run is crash-consistent: run the
// binary twice with the same directory and the second invocation recovers
// the first one's last-good plan ("journal" column flips to "recovered").
#include <cstdio>
#include <cstdlib>

#include <string>

#include "controller/controller.h"
#include "schemes/scheme.h"
#include "topo/builders.h"
#include "util/table.h"

using namespace arrow;

int main(int argc, char** argv) {
  const double cuts_per_day = argc > 1 ? std::atof(argv[1]) : 8.0;
  const char* journal_dir = argc > 2 ? argv[2] : "";
  const topo::Network net = topo::build_b4();

  util::Rng rng(20210823);
  traffic::TrafficParams tp;
  tp.num_matrices = 4;  // diurnal rotation
  const auto tms = traffic::generate_traffic(net, tp, rng);

  ctrl::ControllerConfig base;
  base.horizon_s = 24.0 * 3600.0;
  base.te_interval_s = 300.0;
  base.tunnels.tunnels_per_flow = 5;
  base.arrow.tickets.num_tickets = 6;
  base.scenarios.probability_cutoff = 0.002;
  base.demand_scale = 0.55;
  // One TE period's wall-clock budget: the ladder enforces it per rung, so
  // a pathologically slow solve costs a degraded period, never a late plan.
  base.te_budget_s = 60.0;

  const auto trace =
      ctrl::sample_failure_trace(net, base.horizon_s, cuts_per_day, rng);
  std::printf("B4, one simulated day, %zu fiber cuts, TE every %.0f s\n\n",
              trace.size(), base.te_interval_s);

  util::Table table({"discipline", "availability", "lost (Tbps*s)",
                     "transient loss", "worst restoration", "cuts planned",
                     "journal"});
  const auto run = [&](const std::string& scheme, bool noise_loading,
                       const std::string& label, const std::string& run_id) {
    ctrl::ControllerConfig cfg = base;
    cfg.scheme = scheme;
    cfg.latency.noise_loading = noise_loading;
    // Crash-consistency journal for the headline ARROW run only (the
    // disciplines would otherwise race for the same file).
    if (scheme == "ARROW" && noise_loading) {
      cfg.journal_dir = journal_dir;
    }
    // Per-run artifact names; files appear only when ARROW_OBS_DIR /
    // ARROW_TRACE (or explicit config) turn observability on.
    cfg.obs.run_id = run_id;
    util::Rng run_rng(7);  // identical stream for apples-to-apples replays
    const auto r = ctrl::run_controller(net, tms, trace, cfg, run_rng);
    table.add_row({label, util::Table::pct(r.availability, 4),
                   util::Table::num(r.lost_gbps_seconds / 1000.0, 1),
                   util::Table::num(r.transient_loss_gbps_seconds / 1000.0, 1),
                   util::Table::num(r.restoration_max_s, 1) + " s",
                   std::to_string(r.cuts_with_plan) + "/" +
                       std::to_string(r.cuts_handled),
                   cfg.journal_dir.empty() ? "-"
                   : r.journal_recovered   ? "recovered"
                                           : std::to_string(r.journal_writes) +
                                               " writes"});
  };
  for (const auto& name : schemes::Registry::global().names()) {
    if (name == "ARROW") {
      run(name, true, "ARROW (noise loading)", "arrow");
      run(name, false, "ARROW (legacy amplifiers)", "arrow_legacy");
    } else {
      run(name, true, name, name);
    }
  }
  std::fputs(table.to_string().c_str(), stdout);
  std::printf(
      "\n'transient loss' is traffic lost while restorations were still "
      "converging — the 8 s vs ~17 min amplifier story (Fig. 12) measured "
      "in delivered bytes.\n");
  return 0;
}
