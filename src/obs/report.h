// Per-run observability: the RunReport the controller emits, and the
// ObsConfig knob set that decides what gets written where.
//
// RunReport is the machine-readable summary of one controller or daemon
// run — scenario counts, the rung that served each ladder outcome, the
// solver's returned pivot/warm-start totals, BasisStore traffic,
// restoration latency percentiles — serialized as versioned JSON (a
// `"version"` field holding RunReport::kVersion) so downstream tooling can
// evolve with the format. The numbers are copied from the run's own
// accounting (which in turn records what the solver returned), never
// re-derived from global metrics, so a report's counts match the solver's
// stats exactly even when concurrent runs share the process-wide Registry.
#pragma once

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
// (v4).
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

  // Workload shape.
  int traffic_matrices = 0;
  int scenarios = 0;
  int te_runs = 0;

  // Degradation-ladder outcomes: (rung name, TE solves served by it), in
  // ladder order, plus the periods that ran degraded.
  std::vector<std::pair<std::string, int>> ladder;
  int degraded_periods = 0;
  int deadline_overruns = 0;
  // LP solves that returned kTimedOut under the period budget, backoff
  // sleeps taken before retries, and whether the run was canceled (graceful
  // drain) — all from the controller's own accounting.
  int solver_timeouts = 0;
  int backoff_retries = 0;
  bool canceled = false;

  // Crash-consistency journal traffic (zero / false when no journal_dir).
  bool journal_recovered = false;
  bool journal_prior_in_flight = false;  // predecessor died mid-run
  int journal_writes = 0;
  int journal_write_errors = 0;

  // Warm-start traffic of the run's ScopedWarmStartCache and BasisStore.
  int warm_start_hits = 0;
  int warm_start_stores = 0;
  int basis_seeded = 0;
  int basis_absorbed = 0;
  long long basis_evictions = 0;
  int basis_save_errors = 0;

  // Restoration outcomes.
  int cuts_handled = 0;
  int cuts_with_plan = 0;
  int unplanned_cuts = 0;
  int emergency_restorations = 0;
  int rwa_repairs = 0;
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

  std::string to_json() const;
  bool write(const std::string& path) const;
  // Parses a file previously produced by to_json(). Returns false (out
  // untouched) on malformed JSON or a version other than kVersion.
  static bool from_json(const std::string& text, RunReport* out);
};

// Writes everything `cfg` (already resolved) asks for: the report, a
// Registry::global() snapshot in both formats, and — when cfg.trace — the
// Chrome trace. Returns false if any file failed to write.
bool emit_run_artifacts(const ObsConfig& cfg, const RunReport& report);

}  // namespace arrow::obs
