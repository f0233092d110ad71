// perfbench_runner: runs one benchmark workload in this process and prints
// every metric by name and unit, then one JSON result line.
//
//   perfbench_runner --workload <ibm-te-period|b4-serve|fbsynth-sweep>
//                    --seed N --seconds S --trace 0|1
//                    [--smoke] [--ref-objective X] [--trace-dir DIR]
//
// --trace 0 reports the end-to-end metrics; --trace 1 records spans around
// the calls into each layer and reports the per-layer metrics (the two sets
// are listed in BENCHMARK.json). perfbench/run.py builds this binary and is
// the normal entry point.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.h"
#include "controller/controller.h"
#include "schemes/scheme.h"
#include "solver/basis.h"
#include "solver/presolve.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

// BENCHMARK.json's end-to-end metrics: every workload sets all of them.
const std::map<std::string, std::string>& end_to_end_units() {
  static const std::map<std::string, std::string> units = {
      {"setup_s", "s"},
      {"op_p50_ms", "ms"},
      {"ops_per_s", "1/s"},
      {"delivered_frac", "fraction"},
      {"peak_rss_mb", "MB"},
  };
  return units;
}

// BENCHMARK.json's per-layer metrics. A workload that bypasses a layer
// reports that layer's metrics as 0.
const std::map<std::string, std::string>& per_layer_units() {
  static const std::map<std::string, std::string> units = [] {
    std::map<std::string, std::string> u = {
        {"solver.factorize_ms", "ms"},
        {"solver.factor_nnz", "count"},
        {"solver.ftran_us", "us"},
        {"solver.btran_us", "us"},
        {"solver.refactorizations", "count"},
        {"solver.pivots", "count"},
        {"solver.solve_ms", "ms"},
        {"solver.pivots_per_s", "1/s"},
        {"solver.factorize_share", "fraction"},
        {"solver.lps", "count"},
        {"solver.warm_start_frac", "fraction"},
        {"solver.presolve_rows_removed_frac", "fraction"},
        {"solver.pricing_candidates_per_pivot", "count"},
        {"serve.warm_start_hits", "count"},
        {"serve.cut_planned_frac", "fraction"},
        {"serve.cut_p50_ms", "ms"},
        {"te.input_ms", "ms"},
        {"te.prepare_ms", "ms"},
        {"te.cache_ms", "ms"},
        {"te.phase1_build_ms", "ms"},
        {"te.phase1_rows", "count"},
        {"te.phase1_nnz", "count"},
        {"te.phase1_solve_ms", "ms"},
        {"te.phase1_pivots", "count"},
        {"te.phase2_build_ms", "ms"},
        {"te.phase2_solve_ms", "ms"},
        {"te.phase2_pivots", "count"},
        {"optical.rwa_scenario_ms", "ms"},
        {"optical.rwa_pivots", "count"},
        {"ticket.count", "count"},
        {"sim.sweep_1thread_s", "s"},
        {"schemes.repair_local_frac", "fraction"},
        {"schemes.repair_pivots", "count"},
        {"trace.coverage", "fraction"},
        {"trace.overhead_ms", "ms"},
    };
    for (const auto& s : arrow::schemes::Registry::global().names()) {
      u["sim.scheme_s." + s] = "s";
      u["sim.pivots." + s] = "count";
    }
    for (int r = 0; r < arrow::ctrl::kNumRungs; ++r) {
      u[std::string("controller.rung.") +
        arrow::ctrl::to_string(static_cast<arrow::ctrl::Rung>(r))] = "count";
    }
    return u;
  }();
  return units;
}

const std::string& unit_of(const std::string& name) {
  if (auto it = end_to_end_units().find(name); it != end_to_end_units().end()) {
    return it->second;
  }
  if (auto it = per_layer_units().find(name); it != per_layer_units().end()) {
    return it->second;
  }
  throw std::logic_error("metric not in BENCHMARK.json: " + name);
}

// Clears the knobs that change what the program does between runs (a basis
// or journal directory makes later runs warm-start from earlier ones; obs
// and trace toggles add work) and pins the pool size.
int pin_environment() {
  for (const char* name : {"ARROW_BASIS_DIR", "ARROW_JOURNAL_DIR",
                           "ARROW_OBS_DIR", "ARROW_TRACE",
                           "ARROW_BENCH_FAST"}) {
    unsetenv(name);
  }
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int threads = std::clamp(hw, 1, 4);
  setenv("ARROW_THREADS", std::to_string(threads).c_str(), 1);
  return threads;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "<ibm-te-period|b4-serve|fbsynth-sweep> --seed N --seconds S "
               "--trace 0|1 [--smoke] [--ref-objective X] [--trace-dir DIR]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
        have_seconds = true;
      } else if (arg == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
        have_trace = true;
      } else if (arg == "--smoke") {
        opt.smoke = true;
      } else if (arg == "--ref-objective") {
        opt.ref_objective = std::stod(value());
      } else if (arg == "--trace-dir") {
        opt.trace_dir = value();
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::invalid_argument&) {
      usage(("bad value for " + arg).c_str());
    } catch (const std::out_of_range&) {
      usage(("value out of range for " + arg).c_str());
    }
  }
  if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

void print_metric(const std::string& name, double value,
                  const std::string& unit, const std::string& detail) {
  std::printf("  %-38s %16.6f %-9s %s\n", name.c_str(), value, unit.c_str(),
              detail.c_str());
}

void print_spans(const Tracer& tracer) {
  std::printf("spans (self time = duration minus child spans):\n");
  std::printf("  %-28s %7s %12s %12s %12s\n", "name", "count", "total_ms",
              "self_ms", "p50_ms");
  for (const auto& [name, st] : tracer.stats()) {
    std::printf("  %-28s %7d %12.3f %12.3f %12.3f\n", name.c_str(), st.count,
                st.total_s * 1e3, st.self_s * 1e3, median(st.durations) * 1e3);
  }
}

}  // namespace

// ---- helpers ---------------------------------------------------------------

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(const std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::vector<double> s(v);
  std::sort(s.begin(), s.end());
  const double idx = p / 100.0 * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (idx - static_cast<double>(lo)) * (s[hi] - s[lo]);
}

double median(const std::vector<double>& v) { return percentile(v, 50.0); }

double sum(const std::vector<double>& v) {
  double t = 0.0;
  for (double x : v) t += x;
  return t;
}

double tail_percentile(std::size_t samples) {
  for (double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 0.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---- Report ----------------------------------------------------------------

void Report::set(const std::string& name, double value) {
  unit_of(name);  // throws for a name BENCHMARK.json does not list
  values_[name] = value;
}

void Report::note(const std::string& name, double value,
                  const std::string& unit, const std::string& detail) {
  notes_.push_back({name, value, unit, detail});
}

void Report::op(bool ok, const std::string& what) {
  ops(1, ok ? 0 : 1, what);
}

void Report::ops(long long attempted, long long failed,
                 const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    std::fprintf(stderr, "perfbench: FAILED %lld x %s\n", failed, what.c_str());
  }
}

// ---- Tracer ----------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(now_s()) {}

int Tracer::open(const std::string& name) {
  Record r;
  r.name = name;
  r.start = now_s() - epoch_;
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.op = op_;
  records_.push_back(std::move(r));
  const int index = static_cast<int>(records_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  records_[static_cast<std::size_t>(index)].end = now_s() - epoch_;
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void Tracer::add_closed(const std::string& name, double start_abs,
                        double end_abs) {
  if (!enabled_) return;
  Record r;
  r.name = name;
  r.start = start_abs - epoch_;
  r.end = end_abs - epoch_;
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.op = op_;
  records_.push_back(std::move(r));
}

std::vector<double> Tracer::child_seconds() const {
  std::vector<double> child_s(records_.size(), 0.0);
  for (const auto& r : records_) {
    if (r.parent >= 0) {
      child_s[static_cast<std::size_t>(r.parent)] += r.end - r.start;
    }
  }
  return child_s;
}

std::map<std::string, Tracer::Stats> Tracer::stats() const {
  const std::vector<double> child_s = child_seconds();
  std::map<std::string, Stats> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto& r = records_[i];
    const double d = r.end - r.start;
    Stats& st = out[r.name];
    ++st.count;
    st.total_s += d;
    st.self_s += std::max(0.0, d - child_s[i]);
    st.durations.push_back(d);
  }
  return out;
}

double Tracer::coverage(const std::string& root) const {
  const std::vector<double> child_s = child_seconds();
  std::vector<double> shares;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto& r = records_[i];
    if (r.parent == -1 && r.name == root && r.end > r.start) {
      shares.push_back(std::min(1.0, child_s[i] / (r.end - r.start)));
    }
  }
  return median(shares);
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto& r = records_[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                  "\"parent\":%d,\"op\":%d}}",
                  i == 0 ? "" : ",\n", r.name.c_str(), r.start * 1e6,
                  (r.end - r.start) * 1e6, i, r.parent, r.op);
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// ---- LpCapture -------------------------------------------------------------

LpCapture::LpCapture(Tracer& tracer)
    : tracer_(tracer),
      observer_([this](const arrow::solver::Lp& lp,
                       arrow::solver::LpSolution& sol) {
        LpRecord rec;
        rec.rows = lp.a.rows;
        rec.cols = lp.a.cols;
        rec.nnz = lp.a.nnz();
        rec.iterations = sol.iterations;
        rec.refactorizations = sol.refactorizations;
        rec.simplex_s = sol.phase1_seconds + sol.phase2_seconds;
        rec.optimal = sol.status == arrow::solver::LpStatus::kOptimal;
        rec.warm_started = sol.warm_started;
        rec.presolve_rows_removed = sol.presolve_rows_removed;
        rec.pricing_candidates = sol.pricing_candidates;
        lps_.push_back(rec);
        const double end = now_s();
        tracer_.add_closed("solver.lp", end - rec.simplex_s, end);
        // Largest by the rows the simplex saw, after presolve.
        if (rec.optimal && rec.rows - rec.presolve_rows_removed >
                               largest_record_.rows -
                                   largest_record_.presolve_rows_removed) {
          largest_ = lp;
          largest_basis_ = sol.basis;
          largest_record_ = rec;
        }
      }) {}

void report_solver_layer(const LpCapture& capture, Report& report) {
  using arrow::solver::BasisStatus;
  using arrow::solver::LuBasis;
  const LpRecord& big = capture.largest_record();
  // The simplex factorizes the presolved LP: probe that matrix, with the
  // final basis mapped into its columns (as solve_lp maps a warm start).
  const arrow::solver::Presolved pre = arrow::solver::presolve_lp(
      capture.largest(), arrow::solver::SimplexOptions{});
  const bool reduced =
      pre.status == arrow::solver::Presolved::Status::kReduced &&
      !pre.is_identity();
  const auto& lp = reduced ? pre.reduced : capture.largest();
  arrow::solver::Basis basis;
  if (reduced && capture.largest_basis().status.size() ==
                     static_cast<std::size_t>(capture.largest().a.cols)) {
    for (int oc : pre.col_map) {
      basis.status.push_back(
          capture.largest_basis().status[static_cast<std::size_t>(oc)]);
    }
  } else if (!reduced) {
    basis = capture.largest_basis();
  }
  const int m = lp.a.rows;

  // LuBasis probe: refactorize the largest LP's final basis and apply it,
  // timing each public call (median of repeats).
  std::vector<LuBasis::Column> cols;
  std::vector<double> basic_cost;
  const bool have_basis =
      basis.status.size() == static_cast<std::size_t>(lp.a.cols);
  for (int j = 0; have_basis && j < lp.a.cols; ++j) {
    if (basis.status[static_cast<std::size_t>(j)] != BasisStatus::kBasic) {
      continue;
    }
    auto& col = cols.emplace_back();
    for (int k = lp.a.col_start[static_cast<std::size_t>(j)];
         k < lp.a.col_start[static_cast<std::size_t>(j) + 1]; ++k) {
      col.emplace_back(lp.a.row_index[static_cast<std::size_t>(k)],
                       lp.a.value[static_cast<std::size_t>(k)]);
    }
    basic_cost.push_back(lp.cost[static_cast<std::size_t>(j)]);
  }
  double factorize_ms = 0.0, ftran_us = 0.0, btran_us = 0.0;
  std::size_t factor_nnz = 0;
  if (m > 0 && static_cast<int>(cols.size()) == m) {
    LuBasis lu;
    std::vector<double> f_ms, ft_us, bt_us;
    bool ok = true;
    for (int rep = 0; rep < 5 && ok; ++rep) {
      const double t0 = now_s();
      ok = lu.factorize(m, cols, arrow::solver::SimplexOptions{}.pivot_tol);
      f_ms.push_back((now_s() - t0) * 1e3);
    }
    if (ok) {
      factor_nnz = lu.factor_nnz();
      for (int rep = 0; rep < 25; ++rep) {
        std::vector<double> x(lp.rhs);
        double t0 = now_s();
        lu.ftran(x);
        ft_us.push_back((now_s() - t0) * 1e6);
        std::vector<double> y(basic_cost);
        t0 = now_s();
        lu.btran(y);
        bt_us.push_back((now_s() - t0) * 1e6);
      }
      factorize_ms = median(f_ms);
      ftran_us = median(ft_us);
      btran_us = median(bt_us);
    }
  }
  report.set("solver.factorize_ms", factorize_ms);
  report.set("solver.factor_nnz", static_cast<double>(factor_nnz));
  report.set("solver.ftran_us", ftran_us);
  report.set("solver.btran_us", btran_us);
  report.set("solver.refactorizations", big.refactorizations);
  report.set("solver.pivots", big.iterations);
  report.set("solver.solve_ms", big.simplex_s * 1e3);
  report.set("solver.pivots_per_s",
             big.simplex_s > 0.0 ? big.iterations / big.simplex_s : 0.0);
  const double share = big.simplex_s > 0.0
                           ? big.refactorizations * factorize_ms /
                                 (big.simplex_s * 1e3)
                           : 0.0;
  report.set("solver.factorize_share", share);
  report.note("solver.largest_lp", m, "rows",
              std::to_string(lp.a.cols) + " cols, " +
                  std::to_string(lp.a.nnz()) +
                  " nnz after presolve; LuBasis probe on its final basis" +
                  (factor_nnz == 0 ? " FAILED" : ""));
  report.note("solver.factorize_share", share, "fraction",
              "computed: refactorizations x factorize_ms / solve_ms");

  long long warm = 0, rows = 0, removed = 0, pivots = 0, priced = 0;
  for (const auto& r : capture.lps()) {
    warm += r.warm_started ? 1 : 0;
    rows += r.rows;
    removed += r.presolve_rows_removed;
    pivots += r.iterations;
    priced += r.pricing_candidates;
  }
  const auto n = static_cast<long long>(capture.lps().size());
  report.set("solver.lps", static_cast<double>(n));
  report.set("solver.warm_start_frac",
             n > 0 ? static_cast<double>(warm) / static_cast<double>(n) : 0.0);
  report.set("solver.presolve_rows_removed_frac",
             rows > 0 ? static_cast<double>(removed) / static_cast<double>(rows)
                      : 0.0);
  report.set("solver.pricing_candidates_per_pivot",
             pivots > 0 ? static_cast<double>(priced) /
                              static_cast<double>(pivots)
                        : 0.0);
  report.note("solver.bases", static_cast<double>(n), "LPs",
              std::to_string(warm) + " warm-started, " +
                  std::to_string(removed) + " of " + std::to_string(rows) +
                  " rows presolved away, " + std::to_string(pivots) +
                  " pivots (calling thread only: LPs on pool workers are "
                  "invisible to ScopedSolveObserver)");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
#ifndef NDEBUG
  std::fprintf(stderr,
               "perfbench_runner: built without NDEBUG (%s); refusing to "
               "report numbers from a debug build\n",
               PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  Options opt = parse(argc, argv);
  opt.threads = pin_environment();
  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d smoke=%d "
              "threads=%d build=%s ndebug=1\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.smoke ? 1 : 0, opt.threads,
              PERFBENCH_BUILD_TYPE);

  Report report;
  Tracer tracer(opt.trace);
  if (opt.trace) {
    for (const auto& entry : per_layer_units()) report.set(entry.first, 0.0);
  }
  try {
    if (opt.workload == "ibm-te-period") {
      run_ibm_te_period(opt, report, tracer);
    } else if (opt.workload == "b4-serve") {
      run_b4_serve(opt, report, tracer);
    } else if (opt.workload == "fbsynth-sweep") {
      run_fbsynth_sweep(opt, report, tracer);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_runner: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  const auto& catalogue = opt.trace ? per_layer_units() : end_to_end_units();
  if (!opt.trace) report.set("peak_rss_mb", peak_rss_mb());
  for (const auto& entry : catalogue) {
    if (report.values().count(entry.first) == 0) {
      std::fprintf(stderr, "perfbench_runner: %s did not report %s\n",
                   opt.workload.c_str(), entry.first.c_str());
      return 1;
    }
  }

  std::printf("%s metrics:\n", opt.trace ? "per-layer" : "end-to-end");
  for (const auto& entry : catalogue) {
    print_metric(entry.first, report.values().at(entry.first), entry.second,
                 "");
  }
  std::printf("workload figures:\n");
  for (const auto& n : report.notes()) {
    print_metric(n.name, n.value, n.unit, n.detail);
  }
  const double failed_frac =
      report.attempted() > 0
          ? static_cast<double>(report.failed()) /
                static_cast<double>(report.attempted())
          : 0.0;
  print_metric("failed_ops_frac", failed_frac, "fraction",
               std::to_string(report.failed()) + " of " +
                   std::to_string(report.attempted()) +
                   " operations and output checks");
  if (opt.trace) {
    print_spans(tracer);
    if (!opt.trace_dir.empty()) {
      const std::string path = opt.trace_dir + "/trace-" + opt.workload +
                               "-seed" + std::to_string(opt.seed) + ".json";
      if (tracer.write_chrome_trace(path)) {
        std::printf("spans written to %s\n", path.c_str());
      } else {
        std::fprintf(stderr, "perfbench_runner: cannot write %s\n",
                     path.c_str());
      }
    }
  }

  const bool correct = report.failed() == 0 && report.attempted() > 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted());
  line += ", \"failed\": " + std::to_string(report.failed());
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& entry : catalogue) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", entry.first.c_str(),
                  report.values().at(entry.first), entry.second.c_str());
    line += buf;
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
