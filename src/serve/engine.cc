#include "serve/engine.h"

#include <stdexcept>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "schemes/scheme.h"
#include "sim/availability.h"
#include "util/stats.h"

namespace arrow::serve {

TickEngine::TickEngine(EngineConfig config)
    : config_(std::move(config)), rng_(config_.seed) {}

TickEngine::~TickEngine() { drain(); }

TickEngine::TopologyResult TickEngine::set_topology(topo::Network net) {
  TopologyResult out;
  if (net.num_sites == 0 || net.ip_links.empty()) {
    out.error = "empty network";
    return out;
  }
  // Replacing a live topology ends the previous run cleanly first; the
  // daemon then behaves like a fresh start on the new network.
  if (session_ != nullptr) {
    drain();
    session_.reset();
    current_.reset();
    input_.reset();
    drained_ = false;
  }
  have_topo_ = false;
  net_ = std::move(net);
  scenarios_ = ctrl::run_scenarios(net_, config_.ctrl, rng_);
  cuts_ = ctrl::CutState{};
  try {
    session_ = std::make_unique<ctrl::Session>(config_.ctrl, net_, scenarios_,
                                               rng_, &tally_);
  } catch (const std::logic_error& e) {  // unknown scheme name
    out.error = e.what();
    return out;
  }
  have_topo_ = true;
  out.ok = true;
  out.sites = net_.num_sites;
  out.fibers = static_cast<int>(net_.optical.fibers.size());
  out.scenarios = static_cast<int>(scenarios_.size());
  return out;
}

TickEngine::TickResult TickEngine::tick(const traffic::TrafficMatrix& tm) {
  TickResult out;
  if (drained_) {
    out.error = "engine drained";
    return out;
  }
  if (tm.demands.empty()) {
    out.error = "empty traffic matrix";
    return out;
  }
  if (!have_topo_) {
    out.error = "no topology installed (send a topology op first)";
    return out;
  }
  const bool first = !input_;
  if (first) {
    // The TeInput constructor needs a traffic matrix, and the rest of the
    // offline stage needs the TeInput's tunnels.
    OBS_SPAN("serve_prepare");
    input_.emplace(net_, tm, scenarios_, config_.ctrl.tunnels);
    session_->prepare({&*input_, 1});
  } else {
    // The TeInput keeps its tunnels and caches; only demands change.
    input_->set_demands(tm);
    input_->scale_demands(session_->demand_factor());
  }
  OBS_SPAN("serve_tick");
  ctrl::LadderOutcome lad = session_->solve(*input_);

  ++tally_.traffic_matrices;
  out.ok = true;
  out.tick = tally_.te_runs;
  out.rung = lad.rung;
  out.seconds = lad.seconds;
  out.journal_recovered = first && tally_.journal_recovered;
  out.deadline_overrun = lad.deadline_overrun;
  out.rung_regression = tally_.te_runs > 1 && lad.rung > last_rung_;
  if (lad.rung != ctrl::Rung::kPrimary || out.deadline_overrun) {
    ++tally_.degraded_periods;
  }
  tick_seconds_.push_back(lad.seconds);
  last_rung_ = lad.rung;
  current_ = std::move(lad.sol);

  // SLO metrics: tick latency distribution + rolling p50/p99 gauges, rung
  // attribution, regression alerts. All on the global registry so /metrics
  // serves them without touching engine state.
  auto& reg = obs::Registry::global();
  reg.counter("arrow_serve_ticks_total").add();
  reg.histogram("arrow_serve_tick_seconds").observe(lad.seconds);
  reg.counter("arrow_serve_rung_" + ctrl::rung_metric_name(out.rung) +
              "_total")
      .add();
  if (out.rung_regression) {
    reg.counter("arrow_serve_rung_regressions_total").add();
  }
  if (out.deadline_overrun) {
    reg.counter("arrow_serve_deadline_overruns_total").add();
  }
  reg.gauge("arrow_serve_tick_p50_seconds").set(tick_p50_s());
  reg.gauge("arrow_serve_tick_p99_seconds").set(tick_p99_s());

  observe_delivery();
  return out;
}

TickEngine::CutResult TickEngine::cut(topo::FiberId fiber) {
  CutResult out;
  if (!current_) {
    out.error = "no plan installed yet (send a tick first)";
    return out;
  }
  if (fiber < 0 ||
      fiber >= static_cast<topo::FiberId>(net_.optical.fibers.size())) {
    out.error = "fiber id out of range";
    return out;
  }
  if (cuts_.active.count(fiber) != 0) {
    out.error = "fiber already cut";
    return out;
  }
  OBS_SPAN("serve_cut");
  cuts_.active.insert(fiber);
  ++tally_.cuts_handled;
  obs::Registry::global().counter("arrow_serve_cuts_total").add();
  obs::Registry::global()
      .gauge("arrow_serve_active_cuts")
      .set(static_cast<double>(cuts_.active.size()));
  out.ok = true;

  schemes::CutRepair repair =
      session_->cut(fiber, cuts_.cuts(), *input_, *current_);
  out.planned = repair.planned;
  tally_.local_repair_seconds += repair.solve_seconds;
  tally_.local_repair_pivots += repair.simplex_iterations;
  // An optical answer lights its timeline; any other answer is an IP-layer
  // repair, woven inside the cut request instead of waiting for the next
  // tick.
  const bool rewoven =
      repair.ok && !session_->capabilities().restores_optically;
  if (rewoven || !repair.timeline.empty()) {
    out.restored_gbps = repair.restored_gbps;
    out.latency_s = repair.latency_s;
    tally_.restoration_latency_s.push_back(repair.latency_s);
  }
  // The daemon has no event clock; restored capacity counts from the
  // moment the plan converges (latency reported to the client).
  for (const auto& pt : repair.timeline) {
    cuts_.restore(fiber, pt.link, pt.wave_gbps);
  }
  if (repair.transplanted && !repair.timeline.empty()) {
    ++tally_.emergency_restorations;
  }
  if (rewoven) {
    // Install the repaired plan as current (not last-good: it is shaped
    // for the failure state, and the next tick re-solves from scratch).
    ++tally_.local_repairs;
    out.local_repair = repair.local;
    out.fell_back_global = repair.fell_back_global;
    current_ = std::move(repair.plan);
    if (repair.fell_back_global) {
      ++tally_.local_repair_fallbacks;
      obs::Registry::global()
          .counter("arrow_serve_local_repair_fallbacks_total")
          .add();
    }
    obs::Registry::global().counter("arrow_serve_local_repairs_total").add();
  }
  observe_delivery();
  return out;
}

bool TickEngine::repair(topo::FiberId fiber) {
  if (!cuts_.repair(fiber)) return false;
  obs::Registry::global()
      .gauge("arrow_serve_active_cuts")
      .set(static_cast<double>(cuts_.active.size()));
  observe_delivery();
  return true;
}

void TickEngine::observe_delivery() {
  if (!current_) return;
  const auto d =
      sim::state_delivery(*input_, *current_, cuts_.cuts(), cuts_.restored);
  delivered_sum_ += d.delivered_gbps;
  offered_sum_ += d.offered_gbps;
  obs::Registry::global()
      .gauge("arrow_serve_delivered_gbps")
      .set(d.delivered_gbps);
}

double TickEngine::tick_p50_s() const {
  return tick_seconds_.empty() ? 0.0 : util::percentile(tick_seconds_, 50);
}

double TickEngine::tick_p99_s() const {
  return tick_seconds_.empty() ? 0.0 : util::percentile(tick_seconds_, 99);
}

obs::RunReport TickEngine::report() const {
  ctrl::ControllerReport rr = tally_;
  if (session_ != nullptr) {
    session_->fill_run_report(&rr);
  } else {  // no topology yet
    ctrl::fill_run_report(config_.ctrl, &rr);
  }
  // Mean instantaneous delivered/offered sampled at every tick, cut, and
  // repair — the daemon has no simulated clock to integrate over.
  rr.availability =
      offered_sum_ > 0.0 ? delivered_sum_ / offered_sum_ : 1.0;
  return rr;
}

void TickEngine::drain() {
  if (drained_) return;
  drained_ = true;
  if (!input_) return;  // no tick served: nothing to save or report
  session_->close();
  obs::emit_run_artifacts(session_->obs(), report());
}

}  // namespace arrow::serve
