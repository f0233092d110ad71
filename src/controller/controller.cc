#include "controller/controller.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "controller/session.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optical/event_sim.h"
#include "sim/availability.h"
#include "topo/network.h"
#include "util/check.h"

namespace arrow::ctrl {

const char* to_string(Rung r) {
  switch (r) {
    case Rung::kPrimary: return "primary";
    case Rung::kRelaxedRetry: return "relaxed-retry";
    case Rung::kFfcFallback: return "ffc-fallback";
    case Rung::kCarryForward: return "carry-forward";
    case Rung::kEcmp: return "ecmp";
  }
  return "unknown";
}

std::vector<FailureEvent> sample_failure_trace(const topo::Network& net,
                                               double horizon_s,
                                               double cuts_per_day,
                                               util::Rng& rng) {
  std::vector<FailureEvent> trace;
  const double rate_per_s = cuts_per_day / (24.0 * 3600.0);
  double t = rng.exponential(rate_per_s);
  while (t < horizon_s) {
    FailureEvent ev;
    ev.t_s = t;
    ev.fiber = rng.uniform_int(
        0, static_cast<int>(net.optical.fibers.size()) - 1);
    // §2.2: lognormal MTTR, nine-hour median for fiber cuts.
    ev.repair_s = rng.lognormal(2.2, 0.85) * 3600.0;
    trace.push_back(ev);
    t += rng.exponential(rate_per_s);
  }
  return trace;
}

ControllerReport run_controller(const topo::Network& net,
                                const std::vector<traffic::TrafficMatrix>& tms,
                                const std::vector<FailureEvent>& failures,
                                const ControllerConfig& config,
                                util::Rng& rng) {
  ARROW_CHECK(!tms.empty(), "need at least one traffic matrix");
  ControllerReport report;

  // Observability scope for the whole run. Tracing flips a global flag, so
  // spans recorded on pool workers are captured too; everything here is
  // read-only on solver state — solutions are identical with obs on or off.
  const obs::ObsConfig obs_cfg = config.obs.resolved();
  std::optional<obs::ScopedTraceEnable> trace_scope;
  if (obs_cfg.trace) trace_scope.emplace(true);
  OBS_SPAN("controller_run");

  // --- offline: scenarios, tunnels, per-matrix TE solutions ---------------
  const auto scenarios = run_scenarios(net, config, rng);
  Session session(config, net, scenarios, rng, &report);
  std::vector<te::TeInput> inputs;
  inputs.reserve(tms.size());
  for (const auto& tm : tms) {
    inputs.emplace_back(net, tm, scenarios, config.tunnels);
  }
  session.prepare(inputs);
  const bool restores_optically = session.capabilities().restores_optically;

  std::vector<te::TeSolution> solutions;
  solutions.reserve(inputs.size());
  for (const auto& input : inputs) {
    if (!report.canceled && config.cancel && config.cancel()) {
      report.canceled = true;
    }
    LadderOutcome out = session.solve(input, /*drain=*/report.canceled);
    report.rung_by_matrix.push_back(out.rung);
    report.solve_seconds_by_matrix.push_back(out.seconds);
    report.simplex_iterations_by_matrix.push_back(out.work.simplex_iterations);
    obs::Registry::global()
        .counter("arrow_ctrl_rung_" + rung_metric_name(out.rung) + "_total")
        .add();
    solutions.push_back(std::move(out.sol));
  }

  // Attribute every TE period in the horizon to the rung that produced the
  // matrix it runs on (period p rotates onto matrix p mod |tms|, matching
  // the runtime rotation below). Budget overruns degrade their periods too:
  // a plan that lands after the period it was computed for is late even if
  // it solved on the primary rung.
  const int total_periods = static_cast<int>(
      std::ceil(config.horizon_s / config.te_interval_s));
  for (int p = 0; p < total_periods; ++p) {
    const std::size_t m = static_cast<std::size_t>(p) % inputs.size();
    const bool overrun = config.te_budget_s > 0.0 &&
                         report.solve_seconds_by_matrix[m] > config.te_budget_s;
    if (report.rung_by_matrix[m] != Rung::kPrimary || overrun) {
      ++report.degraded_periods;
    }
  }

  // --- runtime event loop ---------------------------------------------------
  CutState state;
  int restorations_in_flight = 0;  // open windows, for transient loss
  std::size_t active_tm = 0;
  double last_t = 0.0;
  double delivered_rate = 0.0;
  double offered_rate = 0.0;

  const auto recompute_rates = [&]() {
    const auto d = sim::state_delivery(inputs[active_tm],
                                       solutions[active_tm], state.cuts(),
                                       state.restored);
    delivered_rate = d.delivered_gbps;
    offered_rate = d.offered_gbps;
  };

  optical::EventQueue queue;
  const auto advance_to = [&](double now) {
    now = std::min(now, config.horizon_s);  // events past the horizon
    const double dt = now - last_t;
    if (dt > 0.0) {
      report.offered_gbps_seconds += offered_rate * dt;
      report.delivered_gbps_seconds += delivered_rate * dt;
      const double lost = (offered_rate - delivered_rate) * dt;
      report.lost_gbps_seconds += lost;
      if (restorations_in_flight > 0) {
        report.transient_loss_gbps_seconds += lost;
      }
      last_t = now;
    }
  };
  const auto mark = [&](double now) {
    advance_to(now);
    recompute_rates();
    report.timeline.emplace_back(now, delivered_rate);
  };

  // TE period boundaries rotate the traffic matrix.
  for (double t = config.te_interval_s; t < config.horizon_s;
       t += config.te_interval_s) {
    queue.schedule(t, [&, t](double now) {
      active_tm = static_cast<std::size_t>(
                      std::llround(t / config.te_interval_s)) % inputs.size();
      mark(now);
    });
  }

  // Light a cut's answer: run the drop/delay fault hooks, then schedule
  // the wavelength-up events of its timeline. Returns false when the answer
  // was dropped or lights nothing (no surviving surrogate waves).
  const auto light = [&](const schemes::CutRepair& repair,
                         topo::FiberId owner, double now) -> bool {
    if (repair.timeline.empty()) return false;
    if (config.drop_restoration_plan && config.drop_restoration_plan()) {
      ++report.plans_dropped;
      return false;
    }
    double delay = 0.0;
    if (config.restoration_delay_s) {
      delay = std::max(0.0, config.restoration_delay_s());
      if (delay > 0.0) ++report.plans_delayed;
    }
    report.worst_restoration_s =
        std::max(report.worst_restoration_s, delay + repair.latency_s);
    report.restoration_latency_s.push_back(delay + repair.latency_s);
    ++restorations_in_flight;
    // Replay each wavelength-up event; the restoration window closes at the
    // final one.
    const double final_t = now + delay + repair.latency_s;
    for (const auto& p : repair.timeline) {
      const topo::IpLinkId link = p.link;
      const double gbps = p.wave_gbps;
      queue.schedule(now + delay + p.t_s,
                     [&, link, gbps, owner](double when) {
        if (!state.active.count(owner)) return;  // repaired first
        state.restore(owner, link, gbps);
        mark(when);
      });
    }
    queue.schedule(final_t, [&](double when) {
      --restorations_in_flight;
      mark(when);
    });
    return true;
  };

  // Failure + repair + restoration events.
  for (const FailureEvent& ev : failures) {
    if (ev.t_s >= config.horizon_s) continue;
    queue.schedule(ev.t_s, [&, ev](double now) {
      if (state.active.count(ev.fiber)) return;  // already down
      if (!state.active.empty()) ++report.overlapping_cuts;
      state.active.insert(ev.fiber);
      ++report.cuts_handled;
      mark(now);

      // The one gate on the cut path: only optical answers are lit here.
      // An IP-layer repair's latency includes its wall-clock solve time, so
      // replaying one would make the run depend on the machine it ran on.
      if (restores_optically) {
        const schemes::CutRepair repair = session.cut(
            ev.fiber, state.cuts(), inputs[active_tm], solutions[active_tm]);
        if (light(repair, ev.fiber, now) && repair.transplanted) {
          ++report.emergency_restorations;
        }
      }

      // Repair: fiber comes back, restored waves retune home (instant
      // revert — the reverse reconfiguration is hitless under noise
      // loading since the primary path's spectrum is still lit). Only this
      // cut's own restored share is reverted; capacity lit on behalf of a
      // still-active overlapping cut stays up.
      queue.schedule(now + ev.repair_s, [&, ev](double when) {
        state.repair(ev.fiber);
        mark(when);
      });
    });
  }

  queue.schedule(config.horizon_s, [&](double now) { advance_to(now); });

  recompute_rates();
  report.timeline.emplace_back(0.0, delivered_rate);
  queue.run();
  session.close();

  // The RunReport base: this report's own accounting (never re-derived
  // from global metrics — see obs/report.h), written out if enabled.
  session.fill_run_report(&report);
  report.traffic_matrices = static_cast<int>(tms.size());
  report.availability =
      report.offered_gbps_seconds > 0.0
          ? report.delivered_gbps_seconds / report.offered_gbps_seconds
          : 1.0;
  emit_run_artifacts(obs_cfg, report);
  return report;
}

}  // namespace arrow::ctrl
