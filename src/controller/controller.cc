#include "controller/controller.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>

#include "controller/session.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optical/event_sim.h"
#include "optical/rwa.h"
#include "sim/availability.h"
#include "topo/network.h"
#include "ticket/ticket.h"
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
  const bool restores = session.restores();
  const te::ArrowPrepared& prepared = session.prepared();

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

  // Shared tail of both restoration paths: run the drop/delay fault hooks,
  // replay the reconfiguration through the optical latency simulator, and
  // schedule the wavelength-up events. Returns false when the plan was
  // dropped or came out empty (no surviving surrogate waves).
  const auto install_plan = [&](std::vector<optical::LinkRestoration> links,
                                const std::vector<topo::FiberId>& sim_cuts,
                                topo::FiberId owner, double now) -> bool {
    const auto plan = optical::plan_from_restoration(net, links);
    if (plan.empty()) return false;
    if (config.drop_restoration_plan && config.drop_restoration_plan()) {
      ++report.plans_dropped;
      return false;
    }
    double delay = 0.0;
    if (config.restoration_delay_s) {
      delay = std::max(0.0, config.restoration_delay_s());
      if (delay > 0.0) ++report.plans_delayed;
    }
    util::Rng replay = rng.fork();
    const auto latency = optical::simulate_restoration(net, sim_cuts, plan,
                                                       config.latency, replay);
    report.worst_restoration_s =
        std::max(report.worst_restoration_s, delay + latency.total_s);
    report.restoration_latency_s.push_back(delay + latency.total_s);
    ++restorations_in_flight;
    // Replay each wavelength-up event; the restoration window closes at the
    // final one.
    const double final_t = now + delay + latency.total_s;
    for (const auto& p : latency.timeline) {
      if (p.link < 0) continue;
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

  // Emergency restoration for a cut with no exact precomputed plan:
  // transplant the nearest scenario's plan. "Nearest" = highest Jaccard
  // overlap between the scenario's failed IP links and the links this cut
  // actually took down; ties prefer fewer cut fibers (plans transplant more
  // cleanly), then the lower index for determinism.
  const auto emergency_restore = [&](topo::FiberId fiber, double now) {
    const auto failed_now_v = net.failed_ip_links({fiber});
    const std::set<topo::IpLinkId> failed_now(failed_now_v.begin(),
                                              failed_now_v.end());
    if (failed_now.empty()) return;
    int best_q = -1;
    double best_score = 0.0;
    std::size_t best_cuts = 0;
    for (std::size_t q = 0; q < scenarios.size(); ++q) {
      if (prepared.rwa[q].links.empty()) continue;
      const auto& sf = inputs.front().failed_links(static_cast<int>(q));
      std::size_t inter = 0;
      for (topo::IpLinkId e : sf) inter += failed_now.count(e);
      if (inter == 0) continue;
      const double uni =
          static_cast<double>(failed_now.size() + sf.size() - inter);
      const double score = static_cast<double>(inter) / uni;
      if (best_q < 0 || score > best_score + 1e-12 ||
          (score > best_score - 1e-12 && scenarios[q].cuts.size() < best_cuts)) {
        best_q = static_cast<int>(q);
        best_score = score;
        best_cuts = scenarios[q].cuts.size();
      }
    }
    if (best_q < 0) return;  // no scenario shares a failed link
    const ticket::LotteryTicket ticket =
        session.ticket_for(best_q, solutions[active_tm]);
    const auto& rwa_links = prepared.rwa[static_cast<std::size_t>(best_q)].links;
    const std::vector<topo::FiberId> active = state.cuts();
    // Keep only the entries for links this cut actually failed, and zero
    // out surrogate paths that cross any currently cut fiber — the donor
    // scenario did not plan around the cuts we actually have.
    std::vector<optical::LinkRestoration> links;
    std::vector<std::vector<int>> want;
    for (std::size_t li = 0; li < rwa_links.size(); ++li) {
      if (!failed_now.count(rwa_links[li].link)) continue;
      optical::LinkRestoration lr = rwa_links[li];
      std::vector<int> w = li < ticket.path_waves.size()
                               ? ticket.path_waves[li]
                               : std::vector<int>{};
      w.resize(lr.paths.size(), 0);
      for (std::size_t pi = 0; pi < lr.paths.size(); ++pi) {
        for (topo::FiberId f : lr.paths[pi].fibers) {
          if (state.active.count(f)) {
            w[pi] = 0;
            break;
          }
        }
      }
      links.push_back(std::move(lr));
      want.push_back(std::move(w));
    }
    if (links.empty()) return;
    optical::assign_slots_first_fit(net, active, links, want);
    if (install_plan(std::move(links), active, fiber, now)) {
      ++report.emergency_restorations;
    }
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

      if (restores) {
        const int q_match = session.plan_for_cut(ev.fiber);
        if (q_match >= 0) {
          ++report.cuts_with_plan;
          const ticket::LotteryTicket ticket =
              session.ticket_for(q_match, solutions[active_tm]);
          auto links = prepared.rwa[static_cast<std::size_t>(q_match)].links;
          optical::assign_slots_first_fit(net, {ev.fiber}, links,
                                          ticket.path_waves);
          install_plan(std::move(links), {ev.fiber}, ev.fiber, now);
        } else {
          ++report.unplanned_cuts;
          if (config.emergency_restoration) {
            emergency_restore(ev.fiber, now);
          }
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

  // RunReport: copied from this report's own accounting (never re-derived
  // from global metrics — see obs/report.h), then written out if enabled.
  obs::RunReport& rr = report.run_report;
  session.fill_run_report(&rr);
  rr.traffic_matrices = static_cast<int>(tms.size());
  rr.canceled = report.canceled;
  rr.emergency_restorations = report.emergency_restorations;
  rr.availability = report.availability();
  emit_run_artifacts(obs_cfg, rr);
  return report;
}

}  // namespace arrow::ctrl
