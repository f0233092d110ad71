// The resident daemon's control loop: the controller's run core driven by
// socket messages.
//
// run_controller owns a whole simulated horizon — it gets every traffic
// matrix and failure up front and schedules them on the session's clock. A
// daemon gets them one socket message at a time. Both run the same
// ctrl::Session (controller/session.h), so the offline stage, the ladder,
// journaling, warm starts, the clock, the cut handler and RunReport
// accounting are one implementation; TickEngine keeps only its own:
//
//   * the message order: set_topology samples scenarios and opens the
//     session (basis store load); the first tick fixes the tunnel shape and
//     runs the rest of the offline stage (journal recovery, basis store
//     seed, calibration, restoration plans with RWA repair); every tick
//     advances the clock by ctrl.te_interval_s, then runs the ladder (tick
//     N+1 warm-starts from tick N's bases) and installs its plan; cuts and
//     repairs act at the clock's time, so a cut's wave-ups come up as the
//     next tick advances the clock;
//   * tick latency and the serve SLO metrics;
//   * drain: the session's close (absorb, BasisStore save so N
//     daemons sharing one basis_dir merge instead of clobbering, journal
//     end_run) plus the final RunReport.
//
// Not thread-safe: the server calls it from its single poll loop.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "controller/controller.h"
#include "controller/session.h"
#include "te/input.h"
#include "util/rng.h"

namespace arrow::serve {

struct EngineConfig {
  // Scheme (a schemes::Registry name), tunnel/ticket/scenario parameters,
  // per-tick budget (ctrl.te_budget_s — the daemon default is 50 ms, not
  // the simulator's 5 minutes), te_interval_s (the clock's advance per
  // tick), journal_dir, basis_dir, retry_backoff, demand_scale,
  // latency model, fault hooks and obs all mean exactly what they mean for
  // run_controller. horizon_s and cancel are unused — the socket decides
  // when the run ends.
  ctrl::ControllerConfig ctrl;
  std::uint64_t seed = 42;  // scenario sampling + restoration replay rng

  EngineConfig() { ctrl.te_budget_s = 0.05; }
};

class TickEngine {
 public:
  explicit TickEngine(EngineConfig config);
  ~TickEngine();  // drains if the caller has not

  struct TopologyResult {
    bool ok = false;
    std::string error;
    int sites = 0;
    int fibers = 0;
    int scenarios = 0;
  };
  // Installs (or replaces) the network. Scenario sampling and the basis
  // store seeding happen here; tunnels, restoration plans, calibration and
  // journal recovery are deferred to the first tick, which fixes the
  // flow/tunnel shape. Replacing a topology drains the previous run
  // (journal end_run, basis save) first. An unknown scheme name fails here
  // with the registered names in the error.
  TopologyResult set_topology(topo::Network net);

  struct TickResult {
    bool ok = false;
    std::string error;
    int tick = 0;                  // 1-based tick sequence number
    ctrl::Rung rung = ctrl::Rung::kPrimary;
    double seconds = 0.0;          // wall clock of this tick's ladder
    bool deadline_overrun = false;
    // This tick landed on a worse (higher) rung than the previous tick —
    // the daemon's degradation alert.
    bool rung_regression = false;
    bool journal_recovered = false;  // first tick only: prior plan adopted
  };
  TickResult tick(const traffic::TrafficMatrix& tm);

  struct CutResult {
    bool ok = false;
    std::string error;
    bool planned = false;  // answered from an exact precomputed plan
    // Zero when nothing serves (no answer, or the drop hook lost it).
    double restored_gbps = 0.0;
    double latency_s = 0.0;  // until the answer carries traffic
    // IP-layer repair (schemes that do not restore optically): the
    // installed plan was rewoven around the cut.
    bool local_repair = false;
    bool fell_back_global = false;  // local LP insufficient; global re-solve
  };
  CutResult cut(topo::FiberId fiber);
  // Fiber spliced: the cut's own restored capacity reverts. False when the
  // fiber was not cut.
  bool repair(topo::FiberId fiber);

  // Snapshot of everything served so far, in run_controller's report type
  // with the same field meanings (te_runs counts ticks). Safe to call at
  // any time.
  ctrl::ControllerReport report() const;

  // Ends the run: journal end_run, warm-start absorb, BasisStore
  // save, RunReport artifacts (when obs is enabled). Idempotent;
  // called by the server on shutdown and by the destructor as a backstop.
  void drain();

  // --- status (the query op) ----------------------------------------------
  bool has_topology() const { return have_topo_; }
  int ticks() const { return tally_.te_runs; }
  int active_cuts() const {
    return session_ != nullptr ? session_->active_cuts() : 0;
  }
  ctrl::Rung last_rung() const { return last_rung_; }
  bool drained() const { return drained_; }
  // p50/p99 of the per-tick ladder wall clock so far (0 before any tick).
  double tick_p50_s() const;
  double tick_p99_s() const;

 private:
  // Publishes the active-cut and delivered-Gbps gauges.
  void publish_state() const;

  EngineConfig config_;
  util::Rng rng_;

  bool have_topo_ = false;
  topo::Network net_;
  std::vector<scenario::Scenario> scenarios_;

  // Accounting in the controller's report type (te_runs and
  // traffic_matrices count ticks), local repairs included.
  // tally_ and input_ are declared before session_, which points at both.
  ctrl::ControllerReport tally_;
  std::optional<te::TeInput> input_;  // built by the first tick
  std::unique_ptr<ctrl::Session> session_;

  // --- the daemon's own accounting ------------------------------------------
  ctrl::Rung last_rung_ = ctrl::Rung::kPrimary;
  std::vector<double> tick_seconds_;
  bool drained_ = false;
};

}  // namespace arrow::serve
