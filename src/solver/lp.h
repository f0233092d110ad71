// Computational-form LP and solver entry point.
//
// The Model builder (model.h) lowers user constraints into this form:
//
//   minimize    c'x
//   subject to  A x = b          (one slack column appended per row)
//               l <= x <= u      (entries may be +-infinity)
//
// solve_lp() runs a bounded-variable revised primal simplex over a sparse
// LU basis with product-form eta updates (LuBasis, basis.h), a Maros-style
// phase-1 that drives the sum of primal infeasibilities to zero, and
// Bland's rule as an anti-cycling fallback.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/deadline.h"

namespace arrow::solver {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

// Column-compressed sparse matrix.
struct SparseMatrix {
  int rows = 0;
  int cols = 0;
  std::vector<int> col_start;  // size cols + 1
  std::vector<int> row_index;  // size nnz
  std::vector<double> value;   // size nnz

  int nnz() const { return static_cast<int>(row_index.size()); }
};

// LP in computational form (all rows are equalities).
struct Lp {
  SparseMatrix a;             // rows x cols
  std::vector<double> cost;   // size cols
  std::vector<double> lower;  // size cols
  std::vector<double> upper;  // size cols
  std::vector<double> rhs;    // size rows
};

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kNumericalError,
  // The solve's deadline expired mid-pivot. NOT a failure mode like the two
  // above: the solution still carries the best basis reached (and the primal
  // point extracted from it), so the caller can warm-start a retry or hand
  // the partial result to a degradation ladder.
  kTimedOut,
};

const char* to_string(LpStatus s);

enum class Pricing {
  kDantzig,      // most-negative reduced cost, fully recomputed every
                 // iteration. The slow-but-simple cross-check oracle: no
                 // incremental state to drift, so the default mode is tested
                 // against it.
  kIncremental,  // Devex weights + reduced costs *updated* from the pivot row
                 // after each basis change (default). Phase 2 prices from a
                 // maintained vector refreshed at every refactorization;
                 // phase 1 (whose composite costs mutate each pivot) prices
                 // via the row-major mirror, skipping zero-dual rows.
};

struct SimplexOptions {
  double feas_tol = 1e-7;       // primal feasibility tolerance
  double opt_tol = 1e-9;        // dual (reduced-cost) tolerance
  double pivot_tol = 1e-8;      // minimum acceptable pivot magnitude
  int refactor_interval = 64;   // eta updates between refactorizations
  int bland_threshold = 100;    // degenerate steps before Bland's rule
  int max_iterations = 0;       // 0 = automatic (scales with problem size)
  Pricing pricing = Pricing::kIncremental;
  // Wall-clock bound on this solve (util::mono_now_s timeline; unset = none).
  // Combined with any ambient ScopedSolveDeadline: the earlier expiry wins.
  util::Deadline deadline;
  int deadline_check_interval = 64;  // pivots between deadline checks
};

// Snapshot of a simplex basis: one status per computational-form column
// (structural + slack). A Basis taken from one solve can warm-start a later
// solve of an LP with the same shape — re-solves of a perturbed LP (demand
// rescaled, rhs nudged) then start from a near-optimal vertex instead of
// the all-slack identity and typically finish in a fraction of the pivots.
enum class BasisStatus : char {
  kNonbasicLower = 0,
  kNonbasicUpper = 1,
  kBasic = 2,
  kNonbasicFree = 3,
};

struct Basis {
  std::vector<BasisStatus> status;  // size = LP cols

  bool empty() const { return status.empty(); }
  int num_basic() const {
    int n = 0;
    for (BasisStatus s : status) n += s == BasisStatus::kBasic ? 1 : 0;
    return n;
  }
};

struct LpSolution {
  LpStatus status = LpStatus::kNumericalError;
  double objective = 0.0;
  std::vector<double> x;              // primal values, size cols
  std::vector<double> dual;           // row duals y, size rows
  std::vector<double> reduced_cost;   // d = c - A'y, size cols
  Basis basis;                        // final basis (empty on hard failure)
  int iterations = 0;
  int phase1_iterations = 0;
  int refactorizations = 0;           // basis refactorizations performed
  double phase1_seconds = 0.0;        // wall clock in feasibility restoration
  double phase2_seconds = 0.0;        // wall clock in optimality iterations
  bool warm_started = false;          // solved from a caller/cache basis
  // Always 0: there is no presolve. Kept for perfbench's LP records.
  int presolve_rows_removed = 0;
  // Reduced-cost evaluations performed while pricing (every column whose d
  // was computed or updated counts once). The pricing-work proxy: full
  // recomputation pays ~n per pivot, incremental pays ~|pivot row| per pivot.
  long long pricing_candidates = 0;

  // Adds an earlier attempt's iterations, refactorizations, pricing
  // candidates and phase clocks to this solution's: how a cold retry
  // accounts for the failed warm attempt before it.
  void add_attempt(const LpSolution& attempt);
};

// warm_start: optional starting basis. Ignored when its shape does not match
// the LP; a warm solve that ends in numerical error is retried cold from the
// all-slack basis, so warm-starting never costs correctness.
LpSolution solve_lp(const Lp& lp, const SimplexOptions& options = {},
                    const Basis* warm_start = nullptr);

// --- ambient solve hooks ---------------------------------------------------
//
// Production call sites stay hook-free; a region of code (a session's
// warm-start cache, the ladder's per-rung deadlines, the resilience
// fault-injection harness) can wrap itself in a scoped guard and affect
// every solve_lp() that happens inside it, however deep in the call stack
// the Model lives. Nesting is allowed — the innermost guard wins and the
// previous one is restored on destruction. No guard changes the caller's
// SimplexOptions beyond folding in the ambient deadline.
//
// One context, three guards: ScopedWarmStart (and ScopedWarmStartCache,
// which owns the cache it installs), ScopedBasisTag and ScopedSolveDeadline
// each install a SolveContext — a copy of the enclosing one with its own
// field set — in util's task-context slot (util/parallel.h).
// util::ThreadPool carries that slot onto its workers, so these three
// follow work fanned out with submit()/parallel_for: a solve on a worker
// sees exactly the cache, tag and deadlines of the code that fanned it out.
// Guards must therefore outlive the tasks submitted under them.
// ScopedSolveObserver is the exception: it stays per-thread (see below).

class WarmStartCache;
class ScopedSolveDeadline;

// The ambient state the three propagating guards install. Read it through
// the static active() accessors.
struct SolveContext {
  WarmStartCache* warm_cache = nullptr;
  std::uint64_t basis_tag = 0;
  ScopedSolveDeadline* deadline = nullptr;  // innermost deadline guard
  const void* enclosing = nullptr;  // the slot's value before this one
};

// Observes — and may rewrite — every LpSolution produced by solve_lp in
// scope. The simplex runs for real before the observer sees the result, so
// a fault injector that overrides `status` still exercises genuine solver
// state and the caller's true failure-handling paths.
//
// Per-thread by contract: pool workers do NOT inherit an observer. Observers
// expect single-thread calls in program order (the fault injector's
// sequential RNG streams, perfbench's LpCapture), so code that must keep an
// active observer in view runs its work inline (ctrl::Session::pool()).
using SolveObserver = std::function<void(const Lp& lp, LpSolution& solution)>;

class ScopedSolveObserver {
 public:
  explicit ScopedSolveObserver(SolveObserver observer);
  ~ScopedSolveObserver();
  ScopedSolveObserver(const ScopedSolveObserver&) = delete;
  ScopedSolveObserver& operator=(const ScopedSolveObserver&) = delete;

  static SolveObserver* active();

 private:
  SolveObserver observer_;
  SolveObserver* previous_;
};

// Warm-start cache key: LP shape plus a caller-chosen tag. The tag
// disambiguates same-shaped LPs that must not share a basis slot — the
// Phase I decomposition's master LP could collide with an unrelated model of
// the same size. Tag 0 is the untagged default of every other call site.
struct WarmKey {
  int rows = 0;
  int cols = 0;
  std::uint64_t tag = 0;

  bool operator<(const WarmKey& o) const {
    if (rows != o.rows) return rows < o.rows;
    if (cols != o.cols) return cols < o.cols;
    return tag < o.tag;
  }
};

// Tags the ambient warm-start key for every solve_lp() in scope. The
// decomposition wraps each master solve in a guard carrying its tag, so the
// master warm-starts only from an earlier master basis.
class ScopedBasisTag {
 public:
  explicit ScopedBasisTag(std::uint64_t tag);
  ~ScopedBasisTag();
  ScopedBasisTag(const ScopedBasisTag&) = delete;
  ScopedBasisTag& operator=(const ScopedBasisTag&) = delete;

  // The tag in effect (0 when none).
  static std::uint64_t active();

 private:
  SolveContext context_;
};

// A warm-start cache: one basis per (shape, tag), keyed by the LP's (rows,
// cols) and the active ScopedBasisTag. While a guard below installs it,
// every solve_lp() looks up a stored basis before falling back to the
// all-slack start, and stores its final basis back after an optimal finish.
// A chain of same-shaped re-solves — the evaluation sweep's demand scale
// grid, or a session's TE periods, where each LP differs from the previous
// one only in bounds and rhs — then warm-starts link to link with zero
// plumbing through the TE layer. Shape collisions between *different*
// untagged models are harmless: a mismatched basis is just a poor starting
// vertex, and phase 1 (or the cold retry) restores correctness.
//
// Thread-safety: find/store/preload are serialized by an internal mutex, so
// pool workers that inherited the cache may solve concurrently; find copies
// the basis out under the lock. entries()/hits()/stores() are snapshot
// accessors — call them after parallel work has quiesced.
class WarmStartCache {
 public:
  WarmStartCache() = default;
  WarmStartCache(const WarmStartCache&) = delete;
  WarmStartCache& operator=(const WarmStartCache&) = delete;

  // The installed cache (nullptr when none).
  static WarmStartCache* active();

  // Copies the entry into *out and counts a hit when one exists.
  bool find(int rows, int cols, std::uint64_t tag, Basis* out);
  void store(int rows, int cols, Basis basis, std::uint64_t tag = 0);

  // Seeds an entry without counting it as a store — how BasisStore::seed
  // preloads a fresh cache with bases persisted from earlier runs, keeping
  // hits()/stores() meaningful for this run alone.
  void preload(int rows, int cols, Basis basis, std::uint64_t tag = 0);
  // Snapshot of the stored entries, keyed by (shape, tag) — how
  // BasisStore::absorb persists a finished run's bases.
  const std::map<WarmKey, Basis>& entries() const { return entries_; }

  int hits() const { return hits_; }
  int stores() const { return stores_; }

 private:
  mutable std::mutex mu_;
  std::map<WarmKey, Basis> entries_;
  int hits_ = 0;
  int stores_ = 0;
};

// Installs an existing cache for the guard's scope. A cache that outlives
// its scopes — ctrl::Session's, one per run — is installed around each of
// its owner's calls only, so solves between them neither read nor fill it.
class ScopedWarmStart {
 public:
  explicit ScopedWarmStart(WarmStartCache& cache);
  ~ScopedWarmStart();
  ScopedWarmStart(const ScopedWarmStart&) = delete;
  ScopedWarmStart& operator=(const ScopedWarmStart&) = delete;

 private:
  SolveContext context_;
};

// A cache installed for exactly its own lifetime: one sweep chain, one
// test.
class ScopedWarmStartCache : public WarmStartCache {
 public:
  ScopedWarmStartCache() : install_(*this) {}

 private:
  ScopedWarmStart install_;
};

// Imposes a wall-clock deadline on every solve_lp() in scope, and counts the
// timeouts that occur under it. Unlike the other hooks, nesting does not
// shadow: the EFFECTIVE deadline is the earliest across the whole chain plus
// the caller's SimplexOptions::deadline, so an outer "whole run" budget can
// never be loosened by an inner rung guard. A timeout is counted on every
// guard in the chain, letting both the rung and the run observe it — also
// when the timed-out solve ran on a pool worker, hence the atomic count.
class ScopedSolveDeadline {
 public:
  explicit ScopedSolveDeadline(const util::Deadline& deadline);
  ~ScopedSolveDeadline();
  ScopedSolveDeadline(const ScopedSolveDeadline&) = delete;
  ScopedSolveDeadline& operator=(const ScopedSolveDeadline&) = delete;

  // Min expiry over the active chain (unset Deadline when no guard is live).
  static util::Deadline active_deadline();
  // Called by solve_lp when a solve finishes kTimedOut: bumps every guard.
  static void note_timeout();

  int timeouts() const { return timeouts_; }

 private:
  util::Deadline deadline_;
  std::atomic<int> timeouts_{0};
  ScopedSolveDeadline* previous_;
  SolveContext context_;
};

// Verification helper (used heavily in tests): returns the maximum violation
// of Ax = b and of the variable bounds for a candidate point.
double primal_violation(const Lp& lp, const std::vector<double>& x);

}  // namespace arrow::solver
