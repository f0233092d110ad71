// Per-run observability: the RunReport the controller emits, and the
// ObsConfig knob set that decides what gets written where.
//
// RunReport is the machine-readable summary of one controller or daemon
// run — scenario counts, the rung that served each ladder outcome, the
// solver's returned pivot/warm-start totals, BasisStore traffic,
// restoration latency percentiles — serialized as versioned JSON (a
// `"version"` field holding RunReport::kVersion) so downstream tooling can
// evolve with the format. The numbers are the run's own accounting (which
// in turn records what the solver returned), never re-derived from global
// metrics, so a report's counts match the solver's stats exactly even when
// concurrent runs share the process-wide Registry.
#pragma once

#include <array>
#include <string>
#include <utility>
#include <vector>

#include "obs/solve_work.h"

namespace arrow::obs {

// What a run should emit. Resolution order: explicit config fields win,
// then the ARROW_OBS_DIR / ARROW_TRACE environment toggles fill the gaps —
// so `ARROW_TRACE=1 ./wan_controller` lights up tracing with no code
// changes, and an embedding caller can still pin everything down.
struct ObsConfig {
  // Master switch: emit the RunReport and a metrics snapshot at end of run.
  bool enabled = false;
  // Additionally record trace spans for the run's duration and write the
  // Chrome trace file.
  bool trace = false;
  // Output directory (must exist). Empty resolves to ".".
  std::string dir;
  // Distinguishes files when one process makes several runs:
  // report_<run_id>.json, trace_<run_id>.json, metrics_<run_id>.{prom,json}.
  std::string run_id = "run";

  // Applies the environment: ARROW_OBS_DIR (sets dir when unset, turns
  // `enabled` on), ARROW_TRACE (non-empty, non-"0": turns `trace` and
  // `enabled` on). Returns the effective config with dir defaulted.
  ObsConfig resolved() const;

  std::string report_path() const { return dir + "/report_" + run_id + ".json"; }
  std::string trace_path() const { return dir + "/trace_" + run_id + ".json"; }
  std::string metrics_prom_path() const {
    return dir + "/metrics_" + run_id + ".prom";
  }
  std::string metrics_json_path() const {
    return dir + "/metrics_" + run_id + ".json";
  }
};

// The SolveWork base holds the solver work summed from every SolveResult
// the TE layer returned (every ladder attempt counts, not just the winning
// rung's): pivots and pricing work (v3), and Phase I decomposition totals
// (v4). ctrl::ControllerReport takes RunReport as its base in turn, so the
// control loops count straight into these fields.
struct RunReport : SolveWork {
  // v2: adds solver timeout / backoff / cancellation counts and the
  // crash-consistency journal + basis-store save-error fields.
  // v3: adds solver-internals telemetry (presolve reductions, pricing
  // candidates).
  // v4: adds Phase I decomposition counters (master rounds, sub-LP solves,
  // lazily generated rows).
  // v5: adds localized-repair counters (ReWeave-style cut-time repairs:
  // counts, global fallbacks, pivots, solve seconds).
  // v6: adds the offline stage's lost RWA scenarios and the calibration
  // fallback flag.
  // v7: drops the presolve reductions and the decomposition's sub-LP solve
  // count; the presolve pass and the sub-LP are gone.
  static constexpr int kVersion = 7;

  std::string run_id;
  std::string scheme;

  // Workload shape. te_runs counts TE solves (a daemon's ticks).
  int traffic_matrices = 0;
  int scenarios = 0;
  int te_runs = 0;

  // Degradation-ladder outcomes: (rung name, TE solves served by it), in
  // ladder order, plus the periods that ran degraded: served below the
  // primary rung or by a solve that blew the period budget.
  std::vector<std::pair<std::string, int>> ladder;
  int degraded_periods = 0;
  int deadline_overruns = 0;
  // LP solves that returned kTimedOut under the period budget, backoff
  // sleeps taken before retries (the offline stage's RWA repair backoffs
  // included), and whether the run was canceled (graceful drain).
  int solver_timeouts = 0;
  int backoff_retries = 0;
  bool canceled = false;

  // Crash-consistency journal traffic (zero / false when no journal_dir):
  // whether a prior journal's plan seeded the ladder, and whether that
  // journal's writer died mid-run.
  bool journal_recovered = false;
  bool journal_prior_in_flight = false;
  int journal_writes = 0;
  int journal_write_errors = 0;

  // Warm-start traffic of the run's session cache and BasisStore (the
  // store counts are zero when no store is configured).
  int warm_start_hits = 0;
  int warm_start_stores = 0;
  int basis_seeded = 0;
  int basis_absorbed = 0;
  long long basis_evictions = 0;
  int basis_save_errors = 0;  // failed BasisStore::save (old file kept)

  // Restoration outcomes. Every cut a loop asks the scheme's on_cut about
  // counts in cuts_with_plan (answered from the precomputed plan of the
  // single-cut scenario it matches) or in unplanned_cuts;
  // emergency_restorations are the unplanned cuts whose nearest-scenario
  // transplant lit capacity.
  int cuts_handled = 0;
  int cuts_with_plan = 0;
  int unplanned_cuts = 0;
  int emergency_restorations = 0;
  int rwa_repairs = 0;  // scenario RWA solves recovered by retry
  // Offline stage (v6): scenario RWA plans lost even after every repair
  // attempt, and whether calibration fell back to the ECMP bound.
  int rwa_scenarios_lost = 0;
  bool calibration_degraded = false;
  // Localized cut-time repairs (v5; schemes with supports_local_repair —
  // zero for the optical-restoration schemes, whose cuts land above).
  int local_repairs = 0;
  int local_repair_fallbacks = 0;  // local LP insufficient, global re-solve
  long long local_repair_pivots = 0;
  double local_repair_seconds = 0.0;
  int restorations = 0;  // installed plans (latency samples below)
  double restoration_p50_s = 0.0;
  double restoration_p90_s = 0.0;
  double restoration_p99_s = 0.0;
  double restoration_max_s = 0.0;

  double availability = 0.0;

  // The report's one field list: calls f(key, member) for every field, in
  // JSON order, with `r` a RunReport or a const one. `ladder` is written
  // as a {rung: count} object and the latency percentiles as one object of
  // (key, member pointer) pairs; to_json and from_json both walk this list.
  template <class Report, class F>
  static void for_each_field(Report& r, F&& f) {
    f("run_id", r.run_id);
    f("scheme", r.scheme);
    f("traffic_matrices", r.traffic_matrices);
    f("scenarios", r.scenarios);
    f("te_runs", r.te_runs);
    f("ladder", r.ladder);
    f("degraded_periods", r.degraded_periods);
    f("deadline_overruns", r.deadline_overruns);
    f("solver_timeouts", r.solver_timeouts);
    f("backoff_retries", r.backoff_retries);
    f("canceled", r.canceled);
    f("journal_recovered", r.journal_recovered);
    f("journal_prior_in_flight", r.journal_prior_in_flight);
    f("journal_writes", r.journal_writes);
    f("journal_write_errors", r.journal_write_errors);
    f("simplex_iterations", r.simplex_iterations);
    f("pricing_candidates", r.pricing_candidates);
    f("decomposition_rounds", r.decomposition_rounds);
    f("decomposition_cuts", r.decomposition_cuts);
    f("warm_start_hits", r.warm_start_hits);
    f("warm_start_stores", r.warm_start_stores);
    f("basis_seeded", r.basis_seeded);
    f("basis_absorbed", r.basis_absorbed);
    f("basis_evictions", r.basis_evictions);
    f("basis_save_errors", r.basis_save_errors);
    f("cuts_handled", r.cuts_handled);
    f("cuts_with_plan", r.cuts_with_plan);
    f("unplanned_cuts", r.unplanned_cuts);
    f("emergency_restorations", r.emergency_restorations);
    f("rwa_repairs", r.rwa_repairs);
    f("rwa_scenarios_lost", r.rwa_scenarios_lost);
    f("calibration_degraded", r.calibration_degraded);
    f("local_repairs", r.local_repairs);
    f("local_repair_fallbacks", r.local_repair_fallbacks);
    f("local_repair_pivots", r.local_repair_pivots);
    f("local_repair_seconds", r.local_repair_seconds);
    f("restorations", r.restorations);
    using Percentile = std::pair<const char*, decltype(&r.restoration_p50_s)>;
    f("restoration_latency_s",
      std::array<Percentile, 4>{{{"p50", &r.restoration_p50_s},
                                 {"p90", &r.restoration_p90_s},
                                 {"p99", &r.restoration_p99_s},
                                 {"max", &r.restoration_max_s}}});
    f("availability", r.availability);
  }

  std::string to_json() const;
  bool write(const std::string& path) const;
  // Parses a file previously produced by to_json(). A missing key reads as
  // zero / false / empty. Returns false (out untouched) on malformed JSON
  // or a version other than kVersion.
  static bool from_json(const std::string& text, RunReport* out);
};

// Writes everything `cfg` (already resolved) asks for: the report, a
// Registry::global() snapshot in both formats, and — when cfg.trace — the
// Chrome trace. Returns false if any file failed to write.
bool emit_run_artifacts(const ObsConfig& cfg, const RunReport& report);

}  // namespace arrow::obs
