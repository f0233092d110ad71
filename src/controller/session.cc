#include "controller/session.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "obs/metrics.h"
#include "sim/availability.h"
#include "te/basic.h"
#include "topo/network.h"
#include "util/deadline.h"
#include "util/stats.h"

namespace arrow::ctrl {

namespace {

// A config field, else the environment variable (the field overrides).
std::string env_or(const std::string& configured, const char* env_name) {
  if (!configured.empty()) return configured;
  if (const char* env = std::getenv(env_name)) return env;
  return {};
}

}  // namespace

std::vector<scenario::Scenario> run_scenarios(const topo::Network& net,
                                              const ControllerConfig& config,
                                              util::Rng& rng) {
  std::vector<scenario::Scenario> raw = config.explicit_scenarios;
  if (raw.empty()) {
    raw = scenario::generate_scenarios(net, config.scenarios, rng).scenarios;
  }
  return scenario::remove_disconnecting(net, std::move(raw));
}

Session::Session(const ControllerConfig& config, const topo::Network& net,
                 const std::vector<scenario::Scenario>& scenarios,
                 util::Rng& rng, ControllerReport* tally)
    : config_(config), rng_(rng), tally_(tally), obs_(config.obs.resolved()) {
  schemes::SchemeOptions options;
  options.arrow = config.arrow;
  options.latency = config.latency;
  scheme_ = schemes::Registry::global().create(config.scheme, options);
  caps_ = scheme_->capabilities();
  tally_->scenarios = static_cast<int>(scenarios.size());

  // Persistent warm starts (opt-in): with a basis directory the session
  // owns a store loaded from its file; prepare() seeds the session's cache
  // from the store's bases for this exact (topology, scenario set) and
  // close() absorbs the run's final bases back and saves. The hashes key on
  // structure, not demands, so runs over different traffic matrices share
  // vertices as long as the network and scenario set match. The journal is
  // opt-in the same way.
  const std::string basis_dir = env_or(config.basis_dir, "ARROW_BASIS_DIR");
  journal_dir_ = env_or(config.journal_dir, "ARROW_JOURNAL_DIR");
  if (!basis_dir.empty() || !journal_dir_.empty()) {
    topo_h_ = topo::structure_hash(net);
    scen_h_ = scenario::set_hash(scenarios);
  }
  if (!basis_dir.empty()) {
    basis_file_ = solver::BasisStore::file_in(basis_dir);
    store_.emplace();
    store_->load(basis_file_);  // false = cold start
  }
}

util::ThreadPool& Session::pool() {
  return solver::ScopedSolveObserver::active() != nullptr
             ? inline_pool_
             : util::global_pool();
}

void Session::prepare(std::span<te::TeInput> inputs) {
  te::TeInput& input = inputs.front();
  primary_ = &input;
  recover_journal(input);
  // The offline RWA stage runs before the warm-start cache is installed, so
  // its LPs stay out of the cache and the basis file at every thread count.
  // RWA reads no demands and calibration draws no rng, so calibration can
  // follow it.
  if (caps_.needs_prepared) {
    prepared_ = te::prepare_arrow(input, config_.arrow, rng_, pool());
    repair_rwa(input);
  }
  const solver::ScopedWarmStart warm(warm_);
  if (store_) {
    tally_->basis_seeded = store_->seed(topo_h_, scen_h_, warm_);
  }
  calibrate(inputs);
  if (caps_.needs_prepared) {
    // Restorability flags are a function of (tunnels, tickets), both shared
    // across matrices, so one cache serves every period's ladder —
    // including its retry rungs.
    rcache_.emplace(input, prepared_, pool());
  }
  // Ladder backoff streams, one per period (counter-seeded, drawn whether
  // or not any rung retries — the rng trajectory downstream must not depend
  // on how many retries happened).
  backoff_base_ = rng_.next_u64();
}

// A journaled plan is adopted as the initial last-good solution only when it
// was written for this exact network structure and scenario set AND its
// shape matches this run's flow/tunnel layout — anything else is a cold
// start. begin_run writes the in-flight marker before any solve: a crash
// from here on leaves it set for the next process (and the chaos drills).
void Session::recover_journal(const te::TeInput& input) {
  if (journal_dir_.empty()) return;
  journal_.emplace(StateJournal::file_in(journal_dir_));
  JournalState prior = journal_->load();
  tally_->journal_prior_in_flight = prior.in_flight;
  bool recovered = false;
  if (prior.has_plan && prior.topo_hash == topo_h_ &&
      prior.scenario_hash == scen_h_) {
    const auto& tunnels = input.tunnels();
    bool shape_ok = prior.plan.alloc.size() == tunnels.size() &&
                    prior.plan.admitted.size() == tunnels.size();
    for (std::size_t f = 0; shape_ok && f < tunnels.size(); ++f) {
      shape_ok = prior.plan.alloc[f].size() == tunnels[f].size();
    }
    if (shape_ok) {
      te::TeSolution sol;
      sol.scheme = "Journal(" + prior.plan.scheme + ")";
      sol.optimal = true;  // was a real plan for this exact structure
      sol.admitted = prior.plan.admitted;
      sol.alloc = prior.plan.alloc;
      last_good_ = std::move(sol);
      recovered = true;
      tally_->journal_recovered = true;
      obs::Registry::global().counter("arrow_journal_recoveries_total").add();
    }
  }
  if (!recovered) {
    // Do not carry a plan we did not adopt: begin_run stamps OUR hashes
    // into the journal, and a stale foreign plan under them would be
    // trusted (wrongly) by the next recovery.
    prior.has_plan = false;
    prior.plan = JournalPlan{};
  }
  journal_->reset(std::move(prior));
  journal_->begin_run(obs_.run_id, topo_h_, scen_h_);
}

// Calibration gets its own ladder: the LP, the LP once more, then the
// closed-form ECMP bound (conservative but fault-immune).
// A faulted calibration must not take the controller down.
void Session::calibrate(std::span<te::TeInput> inputs) {
  bool ok = false;
  double calibration = 0.0;
  for (int attempt = 0; attempt < 2 && !ok; ++attempt) {
    calibration = te::max_satisfiable_scale(inputs.front(), &ok);
  }
  if (!ok) {
    calibration = te::ecmp_satisfiable_scale(inputs.front());
    tally_->calibration_degraded = true;
  }
  demand_factor_ = calibration * config_.demand_scale;
  for (auto& input : inputs) input.scale_demands(demand_factor_);
}

// A solver fault inside one scenario's RWA silently strips that scenario's
// restoration capacity (its tickets carry zero waves), so failed scenarios
// are re-solved individually, with the same solver settings, before
// anything relies on them. The base for the retry
// streams is drawn whether or not anything failed, so the rng trajectory
// downstream does not depend on how many scenarios a fault happened to hit;
// attempt streams are counter-seeded per (scenario, attempt), so repairs of
// different scenarios run on the pool concurrently and still reproduce
// bit-for-bit.
void Session::repair_rwa(const te::TeInput& input) {
  constexpr int kRwaRetries = 5;
  const std::uint64_t repair_base = rng_.next_u64();
  // Backoff streams are per scenario (counter-seeded like the retry
  // streams), drawn unconditionally for the same reason. Sleeps are real
  // time on the worker running that scenario's repairs — concurrent repairs
  // back off independently.
  const std::uint64_t rwa_backoff_base = rng_.next_u64();
  std::atomic<int> rwa_backoff_retries{0};
  std::vector<int> failed;
  for (std::size_t q = 0; q < prepared_.rwa.size(); ++q) {
    if (!prepared_.rwa[q].optimal) failed.push_back(static_cast<int>(q));
  }
  std::vector<char> repaired(failed.size(), 0);
  pool().parallel_for(0, static_cast<int>(failed.size()), [&](int i) {
    const int q = failed[static_cast<std::size_t>(i)];
    auto* rwa = &prepared_.rwa[static_cast<std::size_t>(q)];
    auto* tickets = &prepared_.tickets[static_cast<std::size_t>(q)];
    util::Backoff backoff(
        config_.retry_backoff,
        util::Rng::stream_seed(rwa_backoff_base,
                               static_cast<std::uint64_t>(q)));
    for (int attempt = 0; attempt < kRwaRetries; ++attempt) {
      if (attempt > 0 && backoff.sleep() > 0.0) {
        rwa_backoff_retries.fetch_add(1, std::memory_order_relaxed);
      }
      util::Rng retry_rng(util::Rng::stream_seed(
          repair_base, static_cast<std::uint64_t>(q) * kRwaRetries +
                           static_cast<std::uint64_t>(attempt)));
      te::prepare_arrow_scenario(input, q, config_.arrow, retry_rng, rwa,
                                 tickets);
      if (rwa->optimal) {
        repaired[static_cast<std::size_t>(i)] = 1;
        break;
      }
    }
  });
  for (char r : repaired) {
    if (r) ++tally_->rwa_repairs; else ++tally_->rwa_scenarios_lost;
  }
  tally_->backoff_retries += rwa_backoff_retries.load();
}

LadderOutcome Session::solve(const te::TeInput& input, bool drain) {
  const te::TeSolution* last_good = last_good_ ? &*last_good_ : nullptr;
  LadderOutcome out;
  if (drain) {
    // Graceful drain: no further LP work, the closed-form rungs only.
    solve_bottom_rung(input, last_good, &out);
  } else {
    const util::Deadline deadline =
        config_.te_budget_s > 0.0 ? util::Deadline::after(config_.te_budget_s)
                                  : util::Deadline();
    util::Backoff backoff(
        config_.retry_backoff,
        util::Rng::stream_seed(backoff_base_,
                               static_cast<std::uint64_t>(tally_->te_runs)));
    const solver::ScopedWarmStart warm(warm_);
    out = solve_with_ladder(*scheme_, input, prepared_, last_good,
                            rcache_ ? &*rcache_ : nullptr, pool(), deadline,
                            &backoff);
  }
  out.deadline_overrun =
      config_.te_budget_s > 0.0 && out.seconds > config_.te_budget_s;
  static_cast<obs::SolveWork&>(*tally_) += out.work;
  tally_->solver_timeouts += out.solver_timeouts;
  tally_->backoff_retries += out.backoff_retries;
  tally_->fallback_counts[static_cast<std::size_t>(out.rung)] += 1;
  if (out.deadline_overrun) ++tally_->deadline_overruns;
  ++tally_->te_runs;
  if (out.rung <= Rung::kFfcFallback) {
    if (journal_) {
      JournalPlan plan;
      plan.scheme = out.sol.scheme;
      plan.admitted = out.sol.admitted;
      plan.alloc = out.sol.alloc;
      journal_->record_plan(plan);
    }
    last_good_ = out.sol;
  }
  return out;
}

void Session::close() {
  if (closed_ || primary_ == nullptr) return;
  closed_ = true;
  if (store_) {
    tally_->basis_absorbed = store_->absorb(topo_h_, scen_h_, warm_);
    // save merges under a file lock, so processes sharing one basis_dir
    // all keep their entries. A failed save keeps the previous file intact;
    // the next run just warm-starts from older bases.
    if (!store_->save(basis_file_)) {
      ++tally_->basis_save_errors;
    }
  }
  if (journal_) journal_->end_run();  // clears the in-flight marker
}

void fill_run_report(const ControllerConfig& config,
                     ControllerReport* report) {
  report->run_id = config.obs.resolved().run_id;
  report->scheme = config.scheme;
  report->ladder.clear();
  for (int r = 0; r < kNumRungs; ++r) {
    report->ladder.emplace_back(
        to_string(static_cast<Rung>(r)),
        report->fallback_counts[static_cast<std::size_t>(r)]);
  }
  const auto& lat = report->restoration_latency_s;
  report->restorations = static_cast<int>(lat.size());
  if (!lat.empty()) {
    report->restoration_p50_s = util::percentile(lat, 50);
    report->restoration_p90_s = util::percentile(lat, 90);
    report->restoration_p99_s = util::percentile(lat, 99);
    report->restoration_max_s = *std::max_element(lat.begin(), lat.end());
  }
  report->availability =
      report->offered_gbps_seconds > 0.0
          ? report->delivered_gbps_seconds / report->offered_gbps_seconds
          : 1.0;
}

void Session::fill_run_report(ControllerReport* report) const {
  ctrl::fill_run_report(config_, report);
  if (journal_) {
    report->journal_writes = journal_->writes();
    report->journal_write_errors = journal_->write_errors();
  }
  report->warm_start_hits = warm_.hits();
  report->warm_start_stores = warm_.stores();
  if (store_) report->basis_evictions = store_->evictions();
}

int Session::plan_for_cut(topo::FiberId fiber) const {
  const auto& scenarios = primary_->scenarios();
  for (std::size_t q = 0; q < scenarios.size(); ++q) {
    if (scenarios[q].cuts.size() == 1 && scenarios[q].cuts[0] == fiber) {
      return static_cast<int>(q);
    }
  }
  return -1;
}

void Session::integrate() {
  const double dt = clock_.now() - integrated_to_;
  if (dt <= 0.0) return;
  tally_->offered_gbps_seconds += offered_rate_ * dt;
  tally_->delivered_gbps_seconds += delivered_rate_ * dt;
  const double lost = (offered_rate_ - delivered_rate_) * dt;
  tally_->lost_gbps_seconds += lost;
  if (restorations_in_flight_ > 0) {
    tally_->transient_loss_gbps_seconds += lost;
  }
  integrated_to_ = clock_.now();
}

void Session::serve(const te::TeInput& input, te::TeSolution plan) {
  integrate();
  input_ = &input;
  plan_ = std::move(plan);
  recompute_rates();
}

void Session::recompute_rates() {
  const auto d = sim::state_delivery(
      *input_, plan_, {cut_.begin(), cut_.end()}, restored_);
  delivered_rate_ = d.delivered_gbps;
  offered_rate_ = d.offered_gbps;
}

void Session::install(const te::TeInput& input, const LadderOutcome& period) {
  if (period.rung != Rung::kPrimary || period.deadline_overrun) {
    ++tally_->degraded_periods;
  }
  ++installs_;
  serve(input, period.sol);
}

void Session::advance_to(double t) {
  clock_.run_until(t);
  integrate();
}

void Session::schedule(double t, optical::EventQueue::Handler handler) {
  clock_.schedule(t, std::move(handler));
}

std::optional<schemes::CutRepair> Session::cut(topo::FiberId fiber) {
  if (cut_.count(fiber) != 0) return std::nullopt;
  if (!cut_.empty()) ++tally_->overlapping_cuts;
  ++tally_->cuts_handled;
  integrate();
  cut_.insert(fiber);
  recompute_rates();

  const std::vector<topo::FiberId> cuts(cut_.begin(), cut_.end());
  const te::RestorabilityCache* cache = rcache_ ? &*rcache_ : nullptr;
  const schemes::CutContext ctx{*input_, plan_,      cuts,  plan_for_cut(fiber),
                                fiber,   &prepared_, cache, &rng_};
  schemes::CutRepair repair;
  {
    const solver::ScopedWarmStart warm(warm_);
    repair = scheme_->on_cut(ctx);
  }
  ++(repair.planned ? tally_->cuts_with_plan : tally_->unplanned_cuts);
  tally_->local_repair_seconds += repair.solve_seconds;
  tally_->local_repair_pivots += repair.simplex_iterations;

  // An optical answer lights its timeline under the serving plan; any other
  // answer is an IP-layer repair that replaces the plan.
  const bool rewoven =
      repair.ok && (repair.local || repair.fell_back_global);
  if (!rewoven && repair.timeline.empty()) {
    repair.ok = false;  // nothing to light
    return repair;
  }
  if (config_.drop_restoration_plan && config_.drop_restoration_plan()) {
    ++tally_->plans_dropped;
    repair.ok = false;
    return repair;
  }
  double delay = 0.0;
  if (config_.restoration_delay_s) {
    delay = std::max(0.0, config_.restoration_delay_s());
    if (delay > 0.0) ++tally_->plans_delayed;
  }
  const double latency = delay + repair.latency_s;
  tally_->restoration_latency_s.push_back(latency);
  if (repair.transplanted) ++tally_->emergency_restorations;

  // The restoration window (transient loss) closes when the answer carries
  // traffic: at the final wave-up, or when the rewoven plan lands.
  const double now = clock_.now();
  if (rewoven) {
    // Shaped for this failure state, the rewoven plan serves until the
    // next install and never becomes last-good. Its latency holds the
    // repair's wall-clock solve time, so only the delay sets when it lands.
    ++tally_->local_repairs;
    if (repair.fell_back_global) ++tally_->local_repair_fallbacks;
    if (delay > 0.0) {
      // A period install or the fiber's repair before it lands supersedes
      // the rewoven plan.
      ++restorations_in_flight_;
      clock_.schedule(now + delay, [this, fiber, installs = installs_,
                                    plan = std::move(repair.plan)](double) {
        if (installs == installs_ && cut_.count(fiber) != 0) {
          serve(*input_, plan);
        } else {
          integrate();
        }
        --restorations_in_flight_;
      });
    } else {
      serve(*input_, std::move(repair.plan));
    }
    repair.plan = te::TeSolution{};
  } else {
    // A wave whose cut was repaired first stays dark.
    ++restorations_in_flight_;
    for (const auto& p : repair.timeline) {
      clock_.schedule(now + delay + p.t_s,
                      [this, fiber, link = p.link, gbps = p.wave_gbps](double) {
        if (cut_.count(fiber) == 0) return;
        integrate();
        restored_[link] += gbps;
        restored_by_cut_[fiber].emplace_back(link, gbps);
        recompute_rates();
      });
    }
    clock_.schedule(now + delay + repair.latency_s, [this](double) {
      integrate();
      --restorations_in_flight_;
    });
  }
  repair.latency_s = latency;
  return repair;
}

bool Session::repair(topo::FiberId fiber) {
  if (cut_.erase(fiber) == 0) return false;
  integrate();
  auto it = restored_by_cut_.find(fiber);
  if (it != restored_by_cut_.end()) {
    for (const auto& [link, gbps] : it->second) {
      auto rit = restored_.find(link);
      if (rit == restored_.end()) continue;
      rit->second -= gbps;
      if (rit->second <= 1e-9) restored_.erase(rit);
    }
    restored_by_cut_.erase(it);
  }
  recompute_rates();
  return true;
}

}  // namespace arrow::ctrl
