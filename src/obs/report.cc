#include "obs/report.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace arrow::obs {

ObsConfig ObsConfig::resolved() const {
  ObsConfig out = *this;
  if (out.dir.empty()) {
    if (const char* env = std::getenv("ARROW_OBS_DIR")) {
      if (env[0] != '\0') {
        out.dir = env;
        out.enabled = true;
      }
    }
  }
  if (const char* env = std::getenv("ARROW_TRACE")) {
    if (env[0] != '\0' && !(env[0] == '0' && env[1] == '\0')) {
      out.trace = true;
      out.enabled = true;
    }
  }
  if (out.dir.empty()) out.dir = ".";
  if (out.run_id.empty()) out.run_id = "run";
  return out;
}

namespace {

// Both shared with the JSON value model: format_double is std::to_chars
// (locale-independent — "%.17g" obeyed LC_NUMERIC), and json_escape covers
// every control character, so a surprising string cannot corrupt the file.
std::string fmt_double(double v) { return format_double(v); }

std::string escape(const std::string& s) { return json_escape(s); }

}  // namespace

std::string RunReport::to_json() const {
  std::string out = "{\n";
  out += "  \"version\": " + std::to_string(kVersion) + ",\n";
  out += "  \"run_id\": \"" + escape(run_id) + "\",\n";
  out += "  \"scheme\": \"" + escape(scheme) + "\",\n";
  out += "  \"traffic_matrices\": " + std::to_string(traffic_matrices) + ",\n";
  out += "  \"scenarios\": " + std::to_string(scenarios) + ",\n";
  out += "  \"te_runs\": " + std::to_string(te_runs) + ",\n";
  out += "  \"ladder\": {";
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    out += i == 0 ? "" : ", ";
    out += "\"" + escape(ladder[i].first) +
           "\": " + std::to_string(ladder[i].second);
  }
  out += "},\n";
  out += "  \"degraded_periods\": " + std::to_string(degraded_periods) + ",\n";
  out += "  \"deadline_overruns\": " + std::to_string(deadline_overruns) + ",\n";
  out += "  \"solver_timeouts\": " + std::to_string(solver_timeouts) + ",\n";
  out += "  \"backoff_retries\": " + std::to_string(backoff_retries) + ",\n";
  out += std::string("  \"canceled\": ") + (canceled ? "true" : "false") +
         ",\n";
  out += std::string("  \"journal_recovered\": ") +
         (journal_recovered ? "true" : "false") + ",\n";
  out += std::string("  \"journal_prior_in_flight\": ") +
         (journal_prior_in_flight ? "true" : "false") + ",\n";
  out += "  \"journal_writes\": " + std::to_string(journal_writes) + ",\n";
  out += "  \"journal_write_errors\": " + std::to_string(journal_write_errors) +
         ",\n";
  out += "  \"simplex_iterations\": " + std::to_string(simplex_iterations) +
         ",\n";
  out += "  \"presolve_rows_removed\": " +
         std::to_string(presolve_rows_removed) + ",\n";
  out += "  \"presolve_cols_removed\": " +
         std::to_string(presolve_cols_removed) + ",\n";
  out += "  \"pricing_candidates\": " + std::to_string(pricing_candidates) +
         ",\n";
  out += "  \"decomposition_rounds\": " + std::to_string(decomposition_rounds) +
         ",\n";
  out += "  \"decomposition_sub_solves\": " +
         std::to_string(decomposition_sub_solves) + ",\n";
  out += "  \"decomposition_cuts\": " + std::to_string(decomposition_cuts) +
         ",\n";
  out += "  \"warm_start_hits\": " + std::to_string(warm_start_hits) + ",\n";
  out += "  \"warm_start_stores\": " + std::to_string(warm_start_stores) +
         ",\n";
  out += "  \"basis_seeded\": " + std::to_string(basis_seeded) + ",\n";
  out += "  \"basis_absorbed\": " + std::to_string(basis_absorbed) + ",\n";
  out += "  \"basis_evictions\": " + std::to_string(basis_evictions) + ",\n";
  out += "  \"basis_save_errors\": " + std::to_string(basis_save_errors) +
         ",\n";
  out += "  \"cuts_handled\": " + std::to_string(cuts_handled) + ",\n";
  out += "  \"cuts_with_plan\": " + std::to_string(cuts_with_plan) + ",\n";
  out += "  \"unplanned_cuts\": " + std::to_string(unplanned_cuts) + ",\n";
  out += "  \"emergency_restorations\": " +
         std::to_string(emergency_restorations) + ",\n";
  out += "  \"rwa_repairs\": " + std::to_string(rwa_repairs) + ",\n";
  out += "  \"rwa_scenarios_lost\": " + std::to_string(rwa_scenarios_lost) +
         ",\n";
  out += std::string("  \"calibration_degraded\": ") +
         (calibration_degraded ? "true" : "false") + ",\n";
  out += "  \"local_repairs\": " + std::to_string(local_repairs) + ",\n";
  out += "  \"local_repair_fallbacks\": " +
         std::to_string(local_repair_fallbacks) + ",\n";
  out += "  \"local_repair_pivots\": " + std::to_string(local_repair_pivots) +
         ",\n";
  out += "  \"local_repair_seconds\": " + fmt_double(local_repair_seconds) +
         ",\n";
  out += "  \"restorations\": " + std::to_string(restorations) + ",\n";
  out += "  \"restoration_latency_s\": {\"p50\": " +
         fmt_double(restoration_p50_s) +
         ", \"p90\": " + fmt_double(restoration_p90_s) +
         ", \"p99\": " + fmt_double(restoration_p99_s) +
         ", \"max\": " + fmt_double(restoration_max_s) + "},\n";
  out += "  \"availability\": " + fmt_double(availability) + "\n";
  out += "}\n";
  return out;
}

bool RunReport::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << to_json();
  return static_cast<bool>(out);
}

bool RunReport::from_json(const std::string& text, RunReport* out) {
  JsonValue root;
  if (!json_parse(text, &root) || !root.is_object()) return false;
  if (static_cast<int>(root.num("version", -1)) != kVersion) return false;
  RunReport r;
  r.run_id = root.text("run_id");
  r.scheme = root.text("scheme");
  r.traffic_matrices = static_cast<int>(root.num("traffic_matrices"));
  r.scenarios = static_cast<int>(root.num("scenarios"));
  r.te_runs = static_cast<int>(root.num("te_runs"));
  if (const JsonValue* ladder = root.find("ladder")) {
    for (const auto& [name, v] : ladder->object) {
      if (v.is_number()) {
        r.ladder.emplace_back(name, static_cast<int>(v.number));
      }
    }
  }
  r.degraded_periods = static_cast<int>(root.num("degraded_periods"));
  r.deadline_overruns = static_cast<int>(root.num("deadline_overruns"));
  r.solver_timeouts = static_cast<int>(root.num("solver_timeouts"));
  r.backoff_retries = static_cast<int>(root.num("backoff_retries"));
  if (const JsonValue* v = root.find("canceled")) r.canceled = v->boolean;
  if (const JsonValue* v = root.find("journal_recovered")) {
    r.journal_recovered = v->boolean;
  }
  if (const JsonValue* v = root.find("journal_prior_in_flight")) {
    r.journal_prior_in_flight = v->boolean;
  }
  r.journal_writes = static_cast<int>(root.num("journal_writes"));
  r.journal_write_errors =
      static_cast<int>(root.num("journal_write_errors"));
  r.simplex_iterations =
      static_cast<long long>(root.num("simplex_iterations"));
  r.presolve_rows_removed =
      static_cast<long long>(root.num("presolve_rows_removed"));
  r.presolve_cols_removed =
      static_cast<long long>(root.num("presolve_cols_removed"));
  r.pricing_candidates =
      static_cast<long long>(root.num("pricing_candidates"));
  r.decomposition_rounds =
      static_cast<long long>(root.num("decomposition_rounds"));
  r.decomposition_sub_solves =
      static_cast<long long>(root.num("decomposition_sub_solves"));
  r.decomposition_cuts =
      static_cast<long long>(root.num("decomposition_cuts"));
  r.warm_start_hits = static_cast<int>(root.num("warm_start_hits"));
  r.warm_start_stores = static_cast<int>(root.num("warm_start_stores"));
  r.basis_seeded = static_cast<int>(root.num("basis_seeded"));
  r.basis_absorbed = static_cast<int>(root.num("basis_absorbed"));
  r.basis_evictions = static_cast<long long>(root.num("basis_evictions"));
  r.basis_save_errors = static_cast<int>(root.num("basis_save_errors"));
  r.cuts_handled = static_cast<int>(root.num("cuts_handled"));
  r.cuts_with_plan = static_cast<int>(root.num("cuts_with_plan"));
  r.unplanned_cuts = static_cast<int>(root.num("unplanned_cuts"));
  r.emergency_restorations =
      static_cast<int>(root.num("emergency_restorations"));
  r.rwa_repairs = static_cast<int>(root.num("rwa_repairs"));
  r.rwa_scenarios_lost = static_cast<int>(root.num("rwa_scenarios_lost"));
  if (const JsonValue* v = root.find("calibration_degraded")) {
    r.calibration_degraded = v->boolean;
  }
  r.local_repairs = static_cast<int>(root.num("local_repairs"));
  r.local_repair_fallbacks =
      static_cast<int>(root.num("local_repair_fallbacks"));
  r.local_repair_pivots =
      static_cast<long long>(root.num("local_repair_pivots"));
  r.local_repair_seconds = root.num("local_repair_seconds");
  r.restorations = static_cast<int>(root.num("restorations"));
  if (const JsonValue* lat = root.find("restoration_latency_s")) {
    r.restoration_p50_s = lat->num("p50");
    r.restoration_p90_s = lat->num("p90");
    r.restoration_p99_s = lat->num("p99");
    r.restoration_max_s = lat->num("max");
  }
  r.availability = root.num("availability");
  *out = std::move(r);
  return true;
}

bool emit_run_artifacts(const ObsConfig& cfg, const RunReport& report) {
  bool ok = true;
  if (cfg.enabled) {
    ok = report.write(cfg.report_path()) && ok;
    {
      std::ofstream out(cfg.metrics_prom_path(), std::ios::trunc);
      ok = (out && (out << Registry::global().prometheus_text())) && ok;
    }
    {
      std::ofstream out(cfg.metrics_json_path(), std::ios::trunc);
      ok = (out && (out << Registry::global().json_text())) && ok;
    }
  }
  if (cfg.trace) {
    ok = write_chrome_trace(cfg.trace_path()) && ok;
  }
  return ok;
}

}  // namespace arrow::obs
