// ARROW as a running system: an event-driven WAN controller simulation.
//
// The paper's evaluation solves TE formulations per traffic matrix; this
// module closes the loop the way the deployed system (Fig. 8) does:
//
//   * the TE controller re-optimizes every te_interval_s against the
//     current traffic matrix (matrices rotate per period, §3.1);
//   * ARROW's offline stage precomputes the RWA + LotteryTicket restoration
//     plans and the online stage installs per-scenario winners;
//   * fiber-cut events arrive at runtime; the scheme's on_cut answers each
//     from the precomputed plan for the cut (or transplants the nearest
//     scenario's) and replays the physical reconfiguration through the
//     optical latency simulator — wavelengths come back one by one, so
//     transient loss during the 8-second (or, with legacy amplifiers,
//     17-minute) restoration window is accounted exactly;
//   * delivered vs offered Gbps-seconds integrate into availability and
//     downtime figures.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/report.h"
#include "optical/latency.h"
#include "scenario/scenario.h"
#include "te/arrow.h"
#include "te/input.h"
#include "traffic/traffic.h"
#include "util/deadline.h"

namespace arrow::solver {
class BasisStore;
}

namespace arrow::ctrl {

// Degradation ladder for TE solves (most- to least-capable). A production
// controller must keep serving traffic through solver faults and deadline
// overruns, so a failed solve walks down this ladder instead of aborting
// the control loop; every TE period is attributed to exactly one rung and
// anything below kPrimary counts as a degradation.
enum class Rung {
  kPrimary = 0,   // configured scheme
  kRelaxedRetry,  // same scheme and solver settings, a second attempt
  kFfcFallback,   // FFC-1 (failure-aware, restoration-oblivious)
  kCarryForward,  // last-good solution projected onto current demands
  kEcmp,          // bottom rung: closed-form, cannot fail
};

inline constexpr int kNumRungs = 5;

const char* to_string(Rung r);

struct FailureEvent {
  double t_s = 0.0;           // cut time
  topo::FiberId fiber = -1;
  double repair_s = 0.0;      // time until the fiber is spliced
};

struct ControllerConfig {
  // TE scheme by schemes::Registry name. An unknown name fails the run
  // before any LP, with the registered names in the error.
  std::string scheme = "ARROW";
  double te_interval_s = 300.0;   // the production 5-minute TE period
  double horizon_s = 24.0 * 3600.0;
  te::TunnelParams tunnels;
  te::ArrowParams arrow;
  scenario::ScenarioParams scenarios;
  // When non-empty, these scenarios are used verbatim instead of sampling
  // from `scenarios` (lets callers guarantee a plan exists for a given cut).
  std::vector<scenario::Scenario> explicit_scenarios;
  optical::LatencyParams latency;  // noise_loading=false => legacy amplifiers
  // Demand scale relative to the calibrated full-satisfaction point.
  double demand_scale = 0.5;

  // Wall-clock budget for one TE period's solves (ladder attempts
  // included). The production TE period is 5 minutes; a solve that outruns
  // it is recorded as a deadline overrun and its periods count as degraded.
  // The budget is also *enforced*: each period's ladder runs under a
  // util::Deadline for this many seconds, split across rungs (primary gets
  // half the budget, the relaxed retry 30%, FFC the remainder), and a solve
  // that hits its share returns LpStatus::kTimedOut and degrades to the
  // next rung. Carry-forward and ECMP are closed-form, so the ladder always
  // lands on some plan inside the budget. <= 0 disables the check.
  double te_budget_s = 300.0;

  // Backoff between ladder retry rungs and RWA repair attempts: capped
  // jittered exponential delays instead of immediate hammering (defaults
  // are milliseconds — tuned for transient solver faults, not outages).
  // Delay sequences are counter-seeded from the run's rng, so runs stay
  // reproducible. Sleeps never extend past the period's deadline.
  util::BackoffParams retry_backoff;

  // Directory for the crash-consistency journal (see controller/journal.h).
  // When non-empty — or when ARROW_JOURNAL_DIR is set, which this field
  // overrides — the run write-ahead-logs an in-flight marker and the
  // last-good plan after each real solve, and *recovers* from a journal left
  // by a previous (possibly crashed) process: a valid journaled plan whose
  // topology/scenario hashes match this run seeds the ladder's carry-forward
  // rung, so the first faulted period degrades to the dead process's
  // last-good plan instead of cold ECMP.
  std::string journal_dir;

  // Cooperative cancellation (SIGTERM in arrowctl): polled between matrix
  // solves. Once it returns true, remaining matrices are served by the
  // carry-forward/ECMP rungs (closed-form, no further LP work), the run
  // completes its accounting, and the journal and RunReport are flushed —
  // a graceful drain, not an abort.
  std::function<bool()> cancel;

  // Opt-in persistent warm-start store (e.g. &solver::BasisStore::global()).
  // Every run chains its TE periods through its session's own warm-start
  // cache, which starts empty, so replaying a run with the same seed
  // reproduces it bit-for-bit. When set, the store seeds that cache with
  // its bases for this (topology, scenario set) and absorbs the run's final
  // bases back on exit — the next run over the same network starts every
  // TE solve from this run's optimal vertex, which a replay cannot rely on
  // (the store is shared and mutable).
  solver::BasisStore* basis_store = nullptr;

  // Directory for the on-disk basis store (extends warm starts across
  // *processes*). When non-empty — or when the ARROW_BASIS_DIR environment
  // variable is set, which this field overrides — the run loads
  // solver::BasisStore::file_in(dir) into the store before seeding and saves
  // the store back after absorbing. Pairs with `basis_store` when one is
  // given; with `basis_store` null, a run-local store is used so the disk
  // file alone carries the warm starts. A missing, truncated or corrupted
  // file degrades to a cold start — never to an error or a changed solution.
  std::string basis_dir;

  // Observability. Resolved against the environment (ARROW_OBS_DIR,
  // ARROW_TRACE) at run start; when enabled the run writes a RunReport,
  // metrics snapshots, and (with trace) a Chrome trace into obs.dir. The
  // ControllerReport's RunReport fields are populated either way —
  // observability is strictly read-only on solver state, so TE solutions
  // are bit-identical with it on or off.
  obs::ObsConfig obs;

  // Fault hooks, normally unset (wired by resilience::FaultInjector):
  // consulted when a restoration plan is about to be installed. `true` from
  // drop_restoration_plan loses the plan entirely; restoration_delay_s adds
  // control-plane latency before the reconfiguration starts.
  std::function<bool()> drop_restoration_plan;
  std::function<double()> restoration_delay_s;
};

// One run's accounting: the RunReport base holds every counter the report
// serializes, and the loops count straight into it. serve::TickEngine
// keeps its tally in this type too: the fields mean the same there, with
// te_runs counting ticks and the time-integrated fields left at zero.
struct ControllerReport : obs::RunReport {
  // run_controller sets the base's availability to delivered / offered
  // (1 when nothing was offered) when the horizon ends.
  double offered_gbps_seconds = 0.0;
  double delivered_gbps_seconds = 0.0;
  double lost_gbps_seconds = 0.0;
  // Loss incurred specifically while restorations were still converging
  // (between the cut and the last wavelength-up event).
  double transient_loss_gbps_seconds = 0.0;
  double worst_restoration_s = 0.0;

  // --- degradation-ladder accounting ---------------------------------------
  // TE solves served by each rung (index with static_cast<int>(Rung)); the
  // RunReport's ladder is built from it.
  std::array<int, kNumRungs> fallback_counts{};
  // Rung and wall-clock solve time behind each traffic matrix's solution.
  std::vector<Rung> rung_by_matrix;
  std::vector<double> solve_seconds_by_matrix;
  // Simplex pivots spent on each matrix's ladder (every attempt counts, not
  // just the winning rung); they sum to simplex_iterations.
  std::vector<long long> simplex_iterations_by_matrix;

  // --- restoration robustness ----------------------------------------------
  int plans_dropped = 0;           // fault hook discarded an available plan
  int plans_delayed = 0;           // fault hook delayed plan installation
  int overlapping_cuts = 0;        // cut arrived while another was active
  // End-to-end latency (control-plane delay + optical convergence) of every
  // installed restoration plan, in installation order; the RunReport's
  // restoration percentiles are taken from it.
  std::vector<double> restoration_latency_s;

  // Delivered-rate staircase: (time, delivered Gbps). One point per state
  // change (TE run, cut, wavelength-up, repair).
  std::vector<std::pair<double, double>> timeline;
};

// Deterministic given the rng. The same failure trace can be replayed
// against different schemes/configs for apples-to-apples comparison.
//
// Robustness contract: a failed or faulted TE solve never aborts the run —
// it walks down the degradation ladder (see Rung) and the report records
// which rung served each period. Cuts without a precomputed plan get a
// best-effort transplant of the nearest scenario's plan instead of none.
ControllerReport run_controller(const topo::Network& net,
                                const std::vector<traffic::TrafficMatrix>& tms,
                                const std::vector<FailureEvent>& failures,
                                const ControllerConfig& config,
                                util::Rng& rng);

// Samples a failure trace: cut times Poisson over the horizon, fibers
// uniform, repair times lognormal with the §2.2 nine-hour median.
std::vector<FailureEvent> sample_failure_trace(const topo::Network& net,
                                               double horizon_s,
                                               double cuts_per_day,
                                               util::Rng& rng);

}  // namespace arrow::ctrl
