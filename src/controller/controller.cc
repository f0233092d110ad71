#include "controller/controller.h"

#include <cmath>
#include <optional>

#include "controller/session.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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

  std::vector<LadderOutcome> periods;
  periods.reserve(inputs.size());
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
    periods.push_back(std::move(out));
  }

  // --- the horizon on the session's clock -----------------------------------
  // Period p serves matrix p mod |tms|; each boundary installs its plan.
  session.install(inputs.front(), periods.front());
  for (double t = config.te_interval_s; t < config.horizon_s;
       t += config.te_interval_s) {
    const std::size_t m =
        static_cast<std::size_t>(std::llround(t / config.te_interval_s)) %
        inputs.size();
    session.schedule(t, [&, m](double) {
      session.install(inputs[m], periods[m]);
    });
  }
  // A cut of a fiber already down is ignored; any other cut is answered
  // and its repair scheduled. Repair is an instant revert: the reverse
  // reconfiguration is hitless under noise loading, since the primary
  // path's spectrum is still lit.
  for (const FailureEvent& ev : failures) {
    if (ev.t_s >= config.horizon_s) continue;
    session.schedule(ev.t_s, [&, ev](double now) {
      if (!session.cut(ev.fiber)) return;
      session.schedule(now + ev.repair_s,
                       [&, ev](double) { session.repair(ev.fiber); });
    });
  }
  session.advance_to(config.horizon_s);
  session.close();

  // The RunReport base: this report's own accounting (never re-derived
  // from global metrics — see obs/report.h), written out if enabled.
  session.fill_run_report(&report);
  report.traffic_matrices = static_cast<int>(tms.size());
  emit_run_artifacts(obs_cfg, report);
  return report;
}

}  // namespace arrow::ctrl
