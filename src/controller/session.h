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
//     seed, prepare_arrow with per-scenario RWA repair, BasisStore load and
//     seed into a warm-start cache that lives as long as the session, the
//     calibration ladder, and the RestorabilityCache;
//   * one TE period: the degradation ladder with the scheme created from
//     schemes::Registry by name, journaling and last-good tracking;
//   * the cut-time plan lookup;
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
#include "ticket/ticket.h"
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
  // to demand_factor(). Opens the session's (scoped) warm-start cache, so
  // solver guards live at this call must outlive the session. inputs[0]
  // must outlive the session.
  void prepare(std::span<te::TeInput> inputs);

  // Serves the next TE period on `input`: the ladder under te_budget_s,
  // or — with `drain` (cancellation) — only the closed-form rungs.
  // Journals the plan and updates last-good when a solving rung served it.
  LadderOutcome solve(const te::TeInput& input, bool drain = false);

  // Absorbs the run's bases into the store and saves them with
  // save_shared, then ends the journal run. Idempotent; a no-op before
  // prepare().
  void close();

  // Fills the RunReport fields both loops share. Journal and warm-start
  // counts are read live, so a report taken mid-run is current.
  void fill_run_report(obs::RunReport* rr) const;

  // Precomputed single-cut scenario for `fiber`, or -1.
  int plan_for_cut(topo::FiberId fiber) const;
  // Restoration ticket for scenario q under `plan`: its Phase I winner
  // when the plan carries one, else the naive RWA plan (fallback-rung
  // plans have no winners, but restoration must still go out).
  ticket::LotteryTicket ticket_for(int q, const te::TeSolution& plan) const;

  // ARROW's offline artifacts are built for this scheme.
  bool restores() const { return caps_.needs_prepared; }
  bool local_repair() const { return caps_.supports_local_repair; }
  const te::ArrowPrepared& prepared() const { return prepared_; }
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

  const ControllerConfig& config_;
  util::Rng& rng_;
  ControllerReport* tally_;
  std::unique_ptr<schemes::Scheme> scheme_;
  schemes::Capabilities caps_;
  obs::ObsConfig obs_;
  int num_scenarios_ = 0;
  util::ThreadPool inline_pool_{1};

  std::optional<solver::BasisStore> local_store_;
  solver::BasisStore* store_ = nullptr;
  std::string basis_file_;
  std::string journal_dir_;
  std::uint64_t topo_h_ = 0;
  std::uint64_t scen_h_ = 0;
  // Opened by prepare() and lives for the rest of the run, so period N+1
  // starts from period N's optimal vertex. Scoped: it serves solves on the
  // thread that prepared the session (the daemon's single poll loop) and
  // the pool work that thread fans out.
  std::optional<solver::ScopedWarmStartCache> warm_;
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
