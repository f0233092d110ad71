// The controller shared by the batch replay and the resident daemon.
//
// ARROW's deployed TE controller (paper Fig. 8) builds its restoration plans
// offline, then re-solves every TE period and answers fiber cuts from the
// precomputed plans. run_controller (controller.h) and serve::TickEngine
// (serve/engine.h) are that one controller, fed a whole horizon up front or
// one socket message at a time. Everything else lives here, once:
//
//   * the offline stage: ARROW_BASIS_DIR / ARROW_JOURNAL_DIR resolution,
//     journal recovery (hash and tunnel-shape checks) into the carry-forward
//     seed, prepare_arrow with per-scenario RWA repair, the session's
//     warm-start cache (seeded from the basis directory's BasisStore),
//     the calibration ladder, and the RestorabilityCache;
//   * one TE period: the degradation ladder with the scheme created from
//     schemes::Registry by name, journaling and last-good tracking;
//   * the control loop on one event clock: plan installs, the one cut
//     handler (the scheme's on_cut and the fault hooks), fiber repairs,
//     and delivered/offered Gbps integrated over the clock's time;
//   * the close step (absorb, BasisStore save, journal end_run) and the
//     RunReport fields both loops share, availability included.
//
// Accounting goes into the caller's ControllerReport (the `tally`), so each
// loop adds only its own fields on top.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "controller/controller.h"
#include "controller/journal.h"
#include "controller/ladder.h"
#include "optical/event_sim.h"
#include "schemes/scheme.h"
#include "solver/basis_store.h"
#include "solver/lp.h"
#include "te/arrow.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace arrow::ctrl {

// The run's failure scenarios: config.explicit_scenarios verbatim, else
// sampled from config.scenarios; disconnecting ones removed.
std::vector<scenario::Scenario> run_scenarios(const topo::Network& net,
                                              const ControllerConfig& config,
                                              util::Rng& rng);

// Fills the RunReport fields derived from the rest of `report`: run_id and
// scheme from `config`, the ladder from fallback_counts, the restoration
// count and percentiles from restoration_latency_s, and availability as
// delivered / offered Gbps-seconds (1 when nothing was offered).
void fill_run_report(const ControllerConfig& config, ControllerReport* report);

class Session {
 public:
  // Creates the scheme, then resolves the basis and journal directories and
  // loads the BasisStore. `tally` (the loop's accounting) must outlive the
  // session. Throws std::logic_error listing the registered names when
  // config.scheme is unknown — before any LP.
  Session(const ControllerConfig& config, const topo::Network& net,
          const std::vector<scenario::Scenario>& scenarios, util::Rng& rng,
          ControllerReport* tally);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // The rest of the offline stage, once the flow/tunnel shape is fixed.
  // `inputs` share one network and scenario set; inputs[0] is checked
  // against the journal, prepared and calibrated, and every input is scaled
  // to demand_factor(). inputs[0] must outlive the session.
  void prepare(std::span<te::TeInput> inputs);

  // Serves the next TE period on `input`: the ladder under te_budget_s,
  // or — with `drain` (cancellation) — only the closed-form rungs.
  // Journals the plan and updates last-good when a solving rung served it.
  LadderOutcome solve(const te::TeInput& input, bool drain = false);

  // Absorbs the run's bases into the store and saves it to the basis
  // directory, then ends the journal run. Idempotent; a no-op before
  // prepare().
  void close();

  // Fills `report`'s derived RunReport fields (fill_run_report below) and
  // the live ones: journal writes, warm-start hits and stores, and basis
  // store evictions, so a report taken mid-run is current. `report` is the
  // tally or a copy of it.
  void fill_run_report(ControllerReport* report) const;

  // --- the control loop, on the session's clock ----------------------------
  // Between events the serving plan's delivered and offered Gbps integrate
  // into the tally's Gbps-second fields.

  // Makes `period`'s plan on `input` (which must outlive it) the serving
  // plan at the clock's time. The one degraded-period rule: a period served
  // below kPrimary, or whose solve overran te_budget_s, is degraded.
  void install(const te::TeInput& input, const LadderOutcome& period);
  // Runs the clock's events at or before `t`, then integrates up to `t`.
  void advance_to(double t);
  void schedule(double t, optical::EventQueue::Handler handler);
  double now() const { return clock_.now(); }

  // The one cut handler, at the clock's time and after an install; nullopt
  // when `fiber` is already down. Counts the cut, asks the scheme's on_cut
  // (with the single-cut scenario for `fiber`, or none), runs the drop and
  // delay fault hooks and records the latency. Then it schedules an optical
  // answer's wave-ups on the clock, or makes an IP-layer answer's rewoven
  // plan the serving plan once the delay has passed (unless an install or
  // the fiber's repair comes first). Returns the answer without its plan,
  // latency_s including the delay, and `ok` false when nothing serves.
  std::optional<schemes::CutRepair> cut(topo::FiberId fiber);
  // The fiber is spliced at the clock's time: the waves lit for it retune
  // home. False when it was not cut.
  bool repair(topo::FiberId fiber);

  bool installed() const { return input_ != nullptr; }
  int active_cuts() const { return static_cast<int>(cut_.size()); }
  double delivered_gbps() const { return delivered_rate_; }

  double demand_factor() const { return demand_factor_; }
  const obs::ObsConfig& obs() const { return obs_; }

  // The pool for the offline stage and the ladder. A solve observer (a
  // fault drill) is per-thread by contract (solver/lp.h), so under one the
  // work stays on this thread; every other solver hook follows the work
  // onto the pool's workers.
  util::ThreadPool& pool();

 private:
  void recover_journal(const te::TeInput& input);
  void calibrate(std::span<te::TeInput> inputs);
  void repair_rwa(const te::TeInput& input);
  // Precomputed single-cut scenario for `fiber`, or -1.
  int plan_for_cut(topo::FiberId fiber) const;
  // Integrates the serving rates up to the clock's time.
  void integrate();
  // Makes `plan` on `input` the serving plan at the clock's time.
  void serve(const te::TeInput& input, te::TeSolution plan);
  // Re-reads the serving rates after a change of plan or cut state.
  void recompute_rates();

  const ControllerConfig& config_;
  util::Rng& rng_;
  ControllerReport* tally_;
  std::unique_ptr<schemes::Scheme> scheme_;
  schemes::Capabilities caps_;
  obs::ObsConfig obs_;
  util::ThreadPool inline_pool_{1};

  // Set exactly when a basis directory is (basis_dir or ARROW_BASIS_DIR).
  std::optional<solver::BasisStore> store_;
  std::string basis_file_;
  std::string journal_dir_;
  std::uint64_t topo_h_ = 0;
  std::uint64_t scen_h_ = 0;
  // The session's warm-start cache: installed around prepare()'s
  // calibration and restorability stage, solve() and cut() only, so period
  // N+1 starts from period N's optimal vertex while solves outside the
  // session's calls neither read nor fill it. It starts empty in every
  // session and the session's solves run in a fixed order, so a replay is
  // bit-for-bit. The basis store (basis_dir / ARROW_BASIS_DIR) only seeds
  // it in prepare() and absorbs it in close().
  // Pool work fanned out during a call inherits it.
  solver::WarmStartCache warm_;
  std::optional<StateJournal> journal_;

  const te::TeInput* primary_ = nullptr;  // set by prepare()
  double demand_factor_ = 1.0;
  te::ArrowPrepared prepared_;
  std::optional<te::RestorabilityCache> rcache_;
  std::optional<te::TeSolution> last_good_;  // seeds carry-forward
  std::uint64_t backoff_base_ = 0;
  bool closed_ = false;

  optical::EventQueue clock_;
  const te::TeInput* input_ = nullptr;  // serving input; null until install
  te::TeSolution plan_;                 // serving plan
  std::set<topo::FiberId> cut_;         // fibers down now
  // Restored Gbps lit per failed IP link, and each cut's own (link, gbps)
  // waves, so overlapping cuts revert only their own share.
  std::map<topo::IpLinkId, double> restored_;
  std::map<topo::FiberId, std::vector<std::pair<topo::IpLinkId, double>>>
      restored_by_cut_;
  int installs_ = 0;
  int restorations_in_flight_ = 0;  // open windows, for transient loss
  double integrated_to_ = 0.0;
  double delivered_rate_ = 0.0;
  double offered_rate_ = 0.0;
};

}  // namespace arrow::ctrl
