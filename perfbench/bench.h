// Shared pieces of the end-to-end benchmark runner: run options, the metric
// report, the in-memory span recorder, and the per-LP capture that reads
// solver counters through solver::ScopedSolveObserver.
//
// Everything here sits outside the program: spans wrap calls into the
// libraries' public functions, and LP counters come from the LpSolution the
// solver returns to the calling thread. LPs solved on pool workers are
// invisible to the observer (its hook is thread-local).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "solver/lp.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Tiny instance sizes, for the benchmark's own smoke test.
  bool smoke = false;
  // Expected objective of the first TE period (ibm-te-period); a mismatch is
  // a failed output check.
  std::optional<double> ref_objective;
  int threads = 1;
  std::string trace_dir;  // where the traced run writes its span file
};

// Seconds on the steady clock.
double now_s();

// Linear-interpolated percentile, p in [0, 100]. 0 for an empty sample.
double percentile(const std::vector<double>& v, double p);
double median(const std::vector<double>& v);
double sum(const std::vector<double>& v);

// The highest of p99/p95/p90/p75/p50 with at least ten samples beyond it
// (0 when even p50 has fewer).
double tail_percentile(std::size_t samples);

// Peak resident set of this process, MiB.
double peak_rss_mb();

// Metric values by name, with the operation/failure tally behind
// failed_ops_frac. Units come from the catalogue in main.cc.
class Report {
 public:
  // A metric listed in BENCHMARK.json (end-to-end or per-layer).
  void set(const std::string& name, double value);
  // Printed in the human-readable block only (workload-specific figures
  // and bases of ratios).
  void note(const std::string& name, double value, const std::string& unit,
            const std::string& detail = "");
  // One attempted operation or output check; false counts as failed.
  void op(bool ok, const std::string& what);
  // `attempted` operations of which `failed` failed.
  void ops(long long attempted, long long failed, const std::string& what);

  const std::map<std::string, double>& values() const { return values_; }
  struct Note {
    std::string name;
    double value;
    std::string unit;
    std::string detail;
  };
  const std::vector<Note>& notes() const { return notes_; }
  long long attempted() const { return attempted_; }
  long long failed() const { return failed_; }

 private:
  std::map<std::string, double> values_;
  std::vector<Note> notes_;
  long long attempted_ = 0;
  long long failed_ = 0;
};

// In-memory span recorder. A span is (name, start, end, parent, op); every
// span opened while an operation (TE period, tick, sweep chain) is current
// carries that operation's id. Disabled recorders record nothing.
class Tracer {
 public:
  struct Record {
    std::string name;
    double start = 0.0;  // seconds since the tracer was created
    double end = 0.0;
    int parent = -1;     // index into records(), -1 for a root
    int op = 0;
  };

  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  // Starts a new operation id for the spans that follow.
  void begin_op() { ++op_; }
  int open(const std::string& name);
  void close(int index);
  // A span whose interval is known only after the fact (an LP solve reported
  // by the observer), nested under the currently open span.
  void add_closed(const std::string& name, double start_abs, double end_abs);

  const std::vector<Record>& records() const { return records_; }

  struct Stats {
    int count = 0;
    double total_s = 0.0;
    double self_s = 0.0;  // duration minus the part covered by child spans
    std::vector<double> durations;
  };
  // Per span name.
  std::map<std::string, Stats> stats() const;
  // Median over root spans named `root` of the share of their duration
  // covered by child spans.
  double coverage(const std::string& root) const;

  bool write_chrome_trace(const std::string& path) const;

 private:
  // Per record: total duration of its direct children.
  std::vector<double> child_seconds() const;

  bool enabled_;
  double epoch_;
  int op_ = 0;
  std::vector<Record> records_;
  std::vector<int> stack_;
};

class Span {
 public:
  Span(Tracer& tracer, const std::string& name)
      : tracer_(tracer),
        index_(tracer.enabled() ? tracer.open(name) : -1),
        start_(now_s()) {}
  ~Span() {
    if (index_ >= 0) tracer_.close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double elapsed() const { return now_s() - start_; }

 private:
  Tracer& tracer_;
  int index_;
  double start_;
};

// What the solver returned for one LP on the calling thread.
struct LpRecord {
  int rows = 0;
  int cols = 0;
  int nnz = 0;
  int iterations = 0;
  int refactorizations = 0;
  double simplex_s = 0.0;  // phase 1 + phase 2 wall clock
  bool optimal = false;
  bool warm_started = false;
  int presolve_rows_removed = 0;
  long long pricing_candidates = 0;
};

// Installs a ScopedSolveObserver for its lifetime. Records every LP solved
// on this thread, keeps a copy of the largest optimal one (by rows left
// after presolve) with its final basis for the LU probe, and adds a
// `solver.lp` span to the tracer.
class LpCapture {
 public:
  explicit LpCapture(Tracer& tracer);
  LpCapture(const LpCapture&) = delete;
  LpCapture& operator=(const LpCapture&) = delete;

  const std::vector<LpRecord>& lps() const { return lps_; }
  const arrow::solver::Lp& largest() const { return largest_; }
  const arrow::solver::Basis& largest_basis() const { return largest_basis_; }
  const LpRecord& largest_record() const { return largest_record_; }

 private:
  Tracer& tracer_;
  std::vector<LpRecord> lps_;
  arrow::solver::Lp largest_;
  arrow::solver::Basis largest_basis_;
  LpRecord largest_record_;
  arrow::solver::ScopedSolveObserver observer_;
};

// Sets the solver.* per-layer metrics: the LuBasis probe on the largest
// captured LP's final basis, that LP's own counters, and the aggregates over
// every captured LP.
void report_solver_layer(const LpCapture& capture, Report& report);

// Workloads (workloads.cc). Each sets every end-to-end metric (untraced) or
// the per-layer metrics its layers reach (traced).
void run_ibm_te_period(const Options& opt, Report& report, Tracer& tracer);
void run_b4_serve(const Options& opt, Report& report, Tracer& tracer);
void run_fbsynth_sweep(const Options& opt, Report& report, Tracer& tracer);

}  // namespace perfbench
