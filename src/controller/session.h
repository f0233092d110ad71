// The run core shared by the batch controller and the resident daemon.
//
// ARROW's deployed TE controller (paper Fig. 8) builds its restoration plans
// offline, then re-solves every TE period and answers fiber cuts from the
// precomputed plans. run_controller (controller.h) and serve::TickEngine
// (serve/engine.h) are that one controller under two clocks: a simulated
// horizon replayed through an event queue, and a socket that delivers ticks
// and cuts. Everything but the clock lives here, once:
//
//   * the offline stage: ARROW_BASIS_DIR / ARROW_JOURNAL_DIR resolution,
//     journal recovery (hash and tunnel-shape checks) into the carry-forward
//     seed, prepare_arrow with per-scenario RWA repair, the session's
//     warm-start cache (seeded from a BasisStore when one is configured),
//     the calibration ladder, and the RestorabilityCache;
//   * one TE period: the degradation ladder with the scheme created from
//     schemes::Registry by name, journaling and last-good tracking;
//   * the cut path: the scenario lookup and the scheme's on_cut, the only
//     code that answers a fiber cut, with its planned/unplanned count;
//   * the close step (absorb, save_shared, journal end_run) and the
//     RunReport fields both loops share.
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

// Fiber cuts in force and the restored capacity lit on their behalf.
struct CutState {
  std::set<topo::FiberId> active;
  // Currently lit restored capacity per failed IP link.
  std::map<topo::IpLinkId, double> restored;
  // Restored (link, gbps) contributions per active cut. Per wave, not per
  // link, so overlapping cuts that restore the same IP link revert only
  // their own share.
  std::map<topo::FiberId, std::vector<std::pair<topo::IpLinkId, double>>>
      restored_by_cut;

  std::vector<topo::FiberId> cuts() const {
    return {active.begin(), active.end()};
  }
  void restore(topo::FiberId owner, topo::IpLinkId link, double gbps) {
    restored[link] += gbps;
    restored_by_cut[owner].emplace_back(link, gbps);
  }
  // The fiber is spliced: its own restored share reverts (restored waves
  // retune home). False when the fiber was not cut.
  bool repair(topo::FiberId fiber);
};

// Fills the RunReport fields derived from the rest of `report`: run_id and
// scheme from `config`, the ladder from fallback_counts, and the
// restoration count and percentiles from restoration_latency_s.
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

  // Absorbs the run's bases into the store and saves them with
  // save_shared, then ends the journal run. Idempotent; a no-op before
  // prepare().
  void close();

  // Fills `report`'s derived RunReport fields (fill_run_report below) and
  // the live ones: journal writes, warm-start hits and stores, and basis
  // store evictions, so a report taken mid-run is current. `report` is the
  // tally or a copy of it.
  void fill_run_report(ControllerReport* report) const;

  // Answers a cut of `fiber` through the scheme's on_cut. `active` is every
  // fiber cut now, `fiber` included; `input` and `plan` are what serves
  // traffic. The context names the precomputed single-cut scenario for
  // `fiber` (or none) and carries the run's rng for the optical replay.
  // Counts the cut in cuts_with_plan when the answer came from that
  // scenario's plan, else in unplanned_cuts. Lighting the answer, and
  // counting a lit transplant in emergency_restorations, is the loop's.
  schemes::CutRepair cut(topo::FiberId fiber,
                         const std::vector<topo::FiberId>& active,
                         const te::TeInput& input, const te::TeSolution& plan);

  const schemes::Capabilities& capabilities() const { return caps_; }
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

  const ControllerConfig& config_;
  util::Rng& rng_;
  ControllerReport* tally_;
  std::unique_ptr<schemes::Scheme> scheme_;
  schemes::Capabilities caps_;
  obs::ObsConfig obs_;
  util::ThreadPool inline_pool_{1};

  std::optional<solver::BasisStore> local_store_;
  solver::BasisStore* store_ = nullptr;
  std::string basis_file_;
  std::string journal_dir_;
  std::uint64_t topo_h_ = 0;
  std::uint64_t scen_h_ = 0;
  // The session's warm-start cache: installed around prepare()'s
  // calibration and restorability stage, solve() and cut() only, so period
  // N+1 starts from period N's optimal vertex while solves outside the
  // session's calls neither read nor fill it. It starts empty in every
  // session and the session's solves run in a fixed order, so a replay is
  // bit-for-bit. A basis store (ControllerConfig::basis_store / basis_dir /
  // ARROW_BASIS_DIR) only seeds it in prepare() and absorbs it in close().
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
};

}  // namespace arrow::ctrl
