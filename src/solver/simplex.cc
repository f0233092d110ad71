// Bounded-variable revised primal simplex on the computational-form LP.
//
// Structure:
//  * initial basis = the all-slack basis (the Model always appends one slack
//    column per row, so the basis matrix starts as the identity);
//  * phase 1 minimizes the sum of primal infeasibilities of the basic
//    variables (Maros-style composite objective, re-derived every iteration);
//  * phase 2 minimizes the true cost; both phases share pricing, FTRAN and
//    the two-pass (Harris-lite) ratio test;
//  * pricing runs off a row-major mirror of A built once per solve. Full
//    passes (Dantzig, phase 1, and incremental refreshes) accumulate
//    d = c - A'y row by row, skipping rows with y == 0 — bit-identical to
//    the per-column CSC dot because column entries arrive in the same
//    ascending-row order. The default kIncremental mode *updates* phase-2
//    reduced costs from the pivot row after each basis change
//    (d_j -= theta_d * alpha_j with alpha = rho'A, rho = B^{-T}e_p) and
//    folds the Devex weight update into the same sparse pass, replacing the
//    old O(n*nnz) per-pivot sweep. Every claimed optimum from maintained
//    reduced costs is confirmed against a fresh full pass before returning.
//  * the entering column is chosen from a maintained set of improving
//    nonbasic columns (d_j < -opt_tol at a lower bound, d_j > opt_tol at an
//    upper bound, either for a free column), not from a scan of all n: a
//    full pass rebuilds the set, a basis change refreshes the entering and
//    leaving columns and the pivot row's columns (the only d_j that moved),
//    a bound flip refreshes the flipped column. The best score wins and a
//    tie goes to the lowest index (Bland's rule takes the lowest index
//    outright): the choice an ascending scan of all n columns makes, so
//    every pivot is the scan's pivot;
//  * the basis inverse is a Markowitz-ordered sparse LU (LuBasis) with
//    product-form updates, refreshed every `refactor_interval` pivots or
//    when the eta file grows dense; each refresh also refreshes the
//    maintained reduced costs, bounding incremental drift;
//  * FTRAN and BTRAN are seeded with their inputs' nonzeros (the entering
//    column's rows, the leaving position, the basic costs the pricing
//    pass sets), so a pivot's solves scan no m-vector for them. FTRAN
//    reports the ascending nonzero positions of w = B^{-1} A_q: the two
//    ratio-test passes, the eta build and (through BTRAN's rows of rho)
//    the pivot-row pass walk only those, in the order a dense scan would.
//    The step update walks them too, plus the positions whose basic value
//    is -0.0: the only ones where the dense axpy's zero terms change a bit;
//  * after `bland_threshold` consecutive degenerate pivots the pivot rule
//    switches to Bland's rule until progress resumes.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "solver/lp.h"
#include "solver/basis.h"
#include "util/check.h"
#include "util/parallel.h"

namespace arrow::solver {

const char* to_string(LpStatus s) {
  switch (s) {
    case LpStatus::kOptimal: return "optimal";
    case LpStatus::kInfeasible: return "infeasible";
    case LpStatus::kUnbounded: return "unbounded";
    case LpStatus::kIterationLimit: return "iteration-limit";
    case LpStatus::kNumericalError: return "numerical-error";
    case LpStatus::kTimedOut: return "timed-out";
  }
  return "unknown";
}

double primal_violation(const Lp& lp, const std::vector<double>& x) {
  const int m = lp.a.rows;
  const int n = lp.a.cols;
  ARROW_CHECK(static_cast<int>(x.size()) == n, "x size mismatch");
  std::vector<double> ax(static_cast<std::size_t>(m), 0.0);
  for (int j = 0; j < n; ++j) {
    for (int k = lp.a.col_start[j]; k < lp.a.col_start[j + 1]; ++k) {
      ax[static_cast<std::size_t>(lp.a.row_index[k])] +=
          lp.a.value[static_cast<std::size_t>(k)] *
          x[static_cast<std::size_t>(j)];
    }
  }
  double viol = 0.0;
  for (int i = 0; i < m; ++i) {
    viol = std::max(viol, std::abs(ax[static_cast<std::size_t>(i)] -
                                   lp.rhs[static_cast<std::size_t>(i)]));
  }
  for (int j = 0; j < n; ++j) {
    viol = std::max(viol, lp.lower[static_cast<std::size_t>(j)] -
                              x[static_cast<std::size_t>(j)]);
    viol = std::max(viol, x[static_cast<std::size_t>(j)] -
                              lp.upper[static_cast<std::size_t>(j)]);
  }
  return viol;
}

namespace {

enum class VStat : char { kBasic, kAtLower, kAtUpper, kFree };

bool is_negative_zero(double v) { return v == 0.0 && std::signbit(v); }

class Simplex {
 public:
  Simplex(const Lp& lp, const SimplexOptions& opt,
          const Basis* warm = nullptr)
      : lp_(lp), opt_(opt), warm_(warm) {
    m_ = lp.a.rows;
    n_ = lp.a.cols;
    max_iter_ = opt.max_iterations > 0 ? opt.max_iterations
                                       : 20000 + 100 * (m_ + n_);
    if (m_ > 0) build_row_mirror();
  }

  bool warm_started() const { return warm_started_; }

  LpSolution run() {
    LpSolution sol;
    if (m_ == 0) return solve_trivial();
    warm_started_ = warm_ != nullptr && init_from_basis(*warm_);
    if (!warm_started_) init_basis();
    if (!refactorize()) {
      // A structurally valid warm basis can still be singular; the all-slack
      // identity never is, so retry from there before giving up.
      if (!warm_started_) {
        sol.status = LpStatus::kNumericalError;
        return sol;
      }
      warm_started_ = false;
      init_basis();
      if (!refactorize()) {
        sol.status = LpStatus::kNumericalError;
        return sol;
      }
    }
    if (opt_.fail_warm_start_for_test && warm_started_) {
      // Deterministic failure injection: charge one synthetic second to each
      // phase so the warm-retry accounting (seconds must sum across the
      // failed warm attempt and the cold retry) is observable in tests.
      phase1_seconds_ = 1.0;
      phase2_seconds_ = 1.0;
      return extract(LpStatus::kNumericalError);
    }
    // Phase wall clocks are observability only: nothing downstream of the
    // timings feeds back into pivot decisions.
    using SimplexClock = std::chrono::steady_clock;
    const auto t0 = SimplexClock::now();
    LpStatus st = iterate(/*phase=*/1);
    if (st == LpStatus::kOptimal && total_infeasibility() > feas_total_tol()) {
      st = LpStatus::kInfeasible;
    }
    const auto t1 = SimplexClock::now();
    phase1_seconds_ = std::chrono::duration<double>(t1 - t0).count();
    if (st == LpStatus::kOptimal) {
      st = iterate(/*phase=*/2);
      phase2_seconds_ =
          std::chrono::duration<double>(SimplexClock::now() - t1).count();
    }
    return extract(st);
  }

 private:
  // An LP with no rows: each variable independently goes to its best bound.
  LpSolution solve_trivial() {
    LpSolution sol;
    sol.x.assign(static_cast<std::size_t>(n_), 0.0);
    for (int j = 0; j < n_; ++j) {
      const double c = lp_.cost[static_cast<std::size_t>(j)];
      const double lo = lp_.lower[static_cast<std::size_t>(j)];
      const double hi = lp_.upper[static_cast<std::size_t>(j)];
      if (lo > hi) {
        sol.status = LpStatus::kInfeasible;
        return sol;
      }
      double v;
      if (c > 0.0) {
        v = lo;
      } else if (c < 0.0) {
        v = hi;
      } else {
        v = std::isfinite(lo) ? lo : (std::isfinite(hi) ? hi : 0.0);
      }
      if (!std::isfinite(v)) {
        sol.status = LpStatus::kUnbounded;
        return sol;
      }
      sol.x[static_cast<std::size_t>(j)] = v;
      sol.objective += c * v;
    }
    sol.status = LpStatus::kOptimal;
    return sol;
  }

  // Row-major mirror of the full constraint matrix (structural + slack
  // columns), built once per solve. Costs one extra (int + double) per
  // nonzero plus m+1 offsets; buys sparse-row pricing everywhere below.
  void build_row_mirror() {
    row_start_.assign(static_cast<std::size_t>(m_) + 1, 0);
    const int nnz = lp_.a.nnz();
    for (int k = 0; k < nnz; ++k) {
      ++row_start_[static_cast<std::size_t>(lp_.a.row_index[k]) + 1];
    }
    for (int i = 0; i < m_; ++i) {
      row_start_[static_cast<std::size_t>(i) + 1] +=
          row_start_[static_cast<std::size_t>(i)];
    }
    row_col_.resize(static_cast<std::size_t>(nnz));
    row_val_.resize(static_cast<std::size_t>(nnz));
    std::vector<int> fill(row_start_.begin(), row_start_.end() - 1);
    for (int j = 0; j < n_; ++j) {
      for (int k = lp_.a.col_start[j]; k < lp_.a.col_start[j + 1]; ++k) {
        const int i = lp_.a.row_index[k];
        row_col_[static_cast<std::size_t>(fill[i])] = j;
        row_val_[static_cast<std::size_t>(fill[i])] =
            lp_.a.value[static_cast<std::size_t>(k)];
        ++fill[i];
      }
    }
  }

  // Rebuilds vstat_/basis_ from a caller-supplied basis. Statuses are
  // sanitized against the current bounds (a variable cannot sit at an
  // infinite bound), so a basis taken from the same-shaped LP with different
  // bound values is still structurally usable. Returns false when the shape
  // or the basic-column count is wrong.
  bool init_from_basis(const Basis& warm) {
    if (static_cast<int>(warm.status.size()) != n_) return false;
    basis_.clear();
    basis_.reserve(static_cast<std::size_t>(m_));
    vstat_.assign(static_cast<std::size_t>(n_), VStat::kAtLower);
    for (int j = 0; j < n_; ++j) {
      const double lo = lp_.lower[static_cast<std::size_t>(j)];
      const double hi = lp_.upper[static_cast<std::size_t>(j)];
      switch (warm.status[static_cast<std::size_t>(j)]) {
        case BasisStatus::kBasic:
          basis_.push_back(j);
          vstat_[static_cast<std::size_t>(j)] = VStat::kBasic;
          break;
        case BasisStatus::kNonbasicUpper:
          vstat_[static_cast<std::size_t>(j)] =
              std::isfinite(hi) ? VStat::kAtUpper
                                : (std::isfinite(lo) ? VStat::kAtLower
                                                     : VStat::kFree);
          break;
        case BasisStatus::kNonbasicLower:
          vstat_[static_cast<std::size_t>(j)] =
              std::isfinite(lo) ? VStat::kAtLower
                                : (std::isfinite(hi) ? VStat::kAtUpper
                                                     : VStat::kFree);
          break;
        case BasisStatus::kNonbasicFree:
          vstat_[static_cast<std::size_t>(j)] = VStat::kFree;
          break;
      }
    }
    if (static_cast<int>(basis_.size()) != m_) return false;
    sync_basic_bounds();
    return true;
  }

  void init_basis() {
    // Model guarantees the last m columns are the per-row slacks (identity).
    basis_.resize(static_cast<std::size_t>(m_));
    vstat_.assign(static_cast<std::size_t>(n_), VStat::kAtLower);
    for (int j = 0; j < n_; ++j) {
      const double lo = lp_.lower[static_cast<std::size_t>(j)];
      const double hi = lp_.upper[static_cast<std::size_t>(j)];
      if (std::isfinite(lo) && (std::abs(lo) <= std::abs(hi) || !std::isfinite(hi))) {
        vstat_[static_cast<std::size_t>(j)] = VStat::kAtLower;
      } else if (std::isfinite(hi)) {
        vstat_[static_cast<std::size_t>(j)] = VStat::kAtUpper;
      } else {
        vstat_[static_cast<std::size_t>(j)] = VStat::kFree;
      }
    }
    for (int i = 0; i < m_; ++i) {
      const int slack = n_ - m_ + i;
      basis_[static_cast<std::size_t>(i)] = slack;
      vstat_[static_cast<std::size_t>(slack)] = VStat::kBasic;
    }
    sync_basic_bounds();
  }

  // Contiguous per-position copies of the basic variables' bounds. The ratio
  // tests and the composite phase-1 cost walk these instead of chasing
  // basis_[p] -> lp_.lower[j] indirections, which keeps their inner loops
  // over plain dense arrays.
  void sync_basic_bounds() {
    lb_basic_.resize(static_cast<std::size_t>(m_));
    ub_basic_.resize(static_cast<std::size_t>(m_));
    for (int p = 0; p < m_; ++p) {
      const int j = basis_[static_cast<std::size_t>(p)];
      lb_basic_[static_cast<std::size_t>(p)] =
          lp_.lower[static_cast<std::size_t>(j)];
      ub_basic_[static_cast<std::size_t>(p)] =
          lp_.upper[static_cast<std::size_t>(j)];
    }
  }

  double nonbasic_value(int j) const {
    switch (vstat_[static_cast<std::size_t>(j)]) {
      case VStat::kAtLower: return lp_.lower[static_cast<std::size_t>(j)];
      case VStat::kAtUpper: return lp_.upper[static_cast<std::size_t>(j)];
      case VStat::kFree: return 0.0;
      case VStat::kBasic: break;
    }
    ARROW_CHECK(false, "nonbasic_value on basic variable");
    return 0.0;
  }

  bool refactorize() {
    ++refactorizations_;
    if (!inv_.factorize(lp_.a, basis_, opt_.pivot_tol)) return false;
    recompute_basic_values();
    return true;
  }

  void recompute_basic_values() {
    std::vector<double>& rhs = rhs_work_;
    rhs.assign(lp_.rhs.begin(), lp_.rhs.end());
    for (int j = 0; j < n_; ++j) {
      if (vstat_[static_cast<std::size_t>(j)] == VStat::kBasic) continue;
      const double v = nonbasic_value(j);
      if (v == 0.0) continue;
      for (int k = lp_.a.col_start[j]; k < lp_.a.col_start[j + 1]; ++k) {
        rhs[static_cast<std::size_t>(lp_.a.row_index[k])] -=
            lp_.a.value[static_cast<std::size_t>(k)] * v;
      }
    }
    inv_.ftran(rhs);
    xb_.swap(rhs);
    neg_zero_.clear();
    for (int p = 0; p < m_; ++p) {
      if (is_negative_zero(xb_[static_cast<std::size_t>(p)])) {
        neg_zero_.push_back(p);
      }
    }
  }

  double total_infeasibility() const {
    double s = 0.0;
    for (int p = 0; p < m_; ++p) {
      const double v = xb_[static_cast<std::size_t>(p)];
      s += std::max(0.0, lb_basic_[static_cast<std::size_t>(p)] - v);
      s += std::max(0.0, v - ub_basic_[static_cast<std::size_t>(p)]);
    }
    return s;
  }

  double feas_total_tol() const {
    return opt_.feas_tol * (1.0 + static_cast<double>(m_));
  }

  // Full pricing pass: y = B^{-T} c_B for the phase-aware basic costs, then
  // d = c - A'y accumulated through the row mirror. Each column's terms
  // arrive in ascending-row order — the same floating-point sequence as the
  // per-column CSC dot product — so skipping rows with y_i == 0 (whose
  // contribution is an exact +-0) is the only difference, and it cannot
  // change any pricing comparison.
  void full_price(int phase) {
    seeds_.clear();
    for (int p = 0; p < m_; ++p) {
      double c;
      if (phase == 1) {
        const double v = xb_[static_cast<std::size_t>(p)];
        if (v < lb_basic_[static_cast<std::size_t>(p)] - opt_.feas_tol) {
          c = -1.0;
        } else if (v > ub_basic_[static_cast<std::size_t>(p)] + opt_.feas_tol) {
          c = 1.0;
        } else {
          c = 0.0;
        }
      } else {
        c = lp_.cost[static_cast<std::size_t>(basis_[static_cast<std::size_t>(p)])];
      }
      y_[static_cast<std::size_t>(p)] = c;
      if (c != 0.0 || std::signbit(c)) seeds_.push_back(p);
    }
    inv_.btran(y_, seeds_);
    if (phase == 1) {
      std::fill(d_.begin(), d_.end(), 0.0);
    } else {
      std::copy(lp_.cost.begin(), lp_.cost.end(), d_.begin());
    }
    for (int i = 0; i < m_; ++i) {
      const double yi = y_[static_cast<std::size_t>(i)];
      if (yi == 0.0) continue;
      const int end = row_start_[static_cast<std::size_t>(i) + 1];
      for (int k = row_start_[static_cast<std::size_t>(i)]; k < end; ++k) {
        d_[static_cast<std::size_t>(row_col_[static_cast<std::size_t>(k)])] -=
            yi * row_val_[static_cast<std::size_t>(k)];
      }
    }
    pricing_candidates_ += n_;
    // Every d_j moved: rebuild the candidate set, in ascending order.
    for (int j : cand_) cand_pos_[static_cast<std::size_t>(j)] = -1;
    cand_.clear();
    for (int j = 0; j < n_; ++j) {
      if (improving_dir(j) == 0) continue;
      cand_pos_[static_cast<std::size_t>(j)] = static_cast<int>(cand_.size());
      cand_.push_back(j);
    }
  }

  // The direction column j would enter in: +1 up from its lower bound, -1
  // down from its upper bound (a free column goes either way), 0 when j is
  // basic or d_j does not improve the objective beyond opt_tol.
  int improving_dir(int j) const {
    const VStat st = vstat_[static_cast<std::size_t>(j)];
    if (st == VStat::kBasic) return 0;
    const double d = d_[static_cast<std::size_t>(j)];
    if ((st == VStat::kAtLower || st == VStat::kFree) && d < -opt_.opt_tol) {
      return +1;
    }
    if ((st == VStat::kAtUpper || st == VStat::kFree) && d > opt_.opt_tol) {
      return -1;
    }
    return 0;
  }

  // Puts j into the candidate set or takes it out after its d_j or status
  // moved. Removal swaps the last member into j's slot.
  void refresh_candidate(int j) {
    int& pos = cand_pos_[static_cast<std::size_t>(j)];
    const bool improving = improving_dir(j) != 0;
    if (improving == (pos >= 0)) return;
    if (improving) {
      pos = static_cast<int>(cand_.size());
      cand_.push_back(j);
      return;
    }
    const int last = cand_.back();
    cand_[static_cast<std::size_t>(pos)] = last;
    cand_pos_[static_cast<std::size_t>(last)] = pos;
    cand_.pop_back();
    pos = -1;
  }

  // Entering-column choice among the improving candidates. Dantzig scores
  // by |d|, incremental by the Devex ratio d^2 / w_j; the best score wins,
  // it must be > 0, and a tie goes to the lowest index. Bland's rule takes
  // the lowest index. That is the choice an ascending scan of all n columns
  // with a strict `score > best` makes, so the set's order never matters.
  int select_entering(bool bland, int* dir_out) {
    int entering = -1;
    if (bland) {
      for (int j : cand_) {
        if (entering < 0 || j < entering) entering = j;
      }
    } else {
      const bool devex_score = opt_.pricing != Pricing::kDantzig;
      double best_score = 0.0;
      for (int j : cand_) {
        const double d = d_[static_cast<std::size_t>(j)];
        const double score =
            devex_score ? d * d / devex_w_[static_cast<std::size_t>(j)]
                        : std::abs(d);
        if (score > best_score || (score == best_score && j < entering)) {
          best_score = score;
          entering = j;
        }
      }
    }
    *dir_out = entering < 0 ? 0 : improving_dir(entering);
    return entering;
  }

  LpStatus iterate(int phase) {
    int degenerate_streak = 0;
    std::vector<double> w(static_cast<std::size_t>(m_));
    std::vector<double> rho(static_cast<std::size_t>(m_));
    // Ascending nonzero positions of w and rows of rho, as the solves
    // report them: the ratio test, the eta build and the pivot-row pass walk
    // these instead of all m entries, in the same ascending order.
    std::vector<int> w_nz;
    std::vector<int> rho_nz;
    int stall_refactors = 0;
    const bool devex_score = opt_.pricing != Pricing::kDantzig;
    // Incremental reduced costs only work in phase 2: the phase-1 composite
    // costs mutate with every pivot, so phase 1 always full-prices (cheaply,
    // through the row mirror — the phase-1 dual vector is typically sparse).
    const bool inc_mode = phase == 2 && opt_.pricing == Pricing::kIncremental;
    devex_w_.assign(static_cast<std::size_t>(n_), 1.0);
    y_.assign(static_cast<std::size_t>(m_), 0.0);
    d_.assign(static_cast<std::size_t>(n_), 0.0);
    cand_.clear();
    cand_pos_.assign(static_cast<std::size_t>(n_), -1);
    alpha_work_.assign(static_cast<std::size_t>(n_), 0.0);
    touched_mark_.assign(static_cast<std::size_t>(n_), 0);
    bool dual_fresh = false;    // inc_mode: d_ valid for the current basis
    // Deadline checks happen at the loop head, every deadline_check_interval
    // passes (plus once on entry). The clock is only read when a deadline is
    // actually set, so unbudgeted solves never touch the clock seam and stay
    // bit-identical with or without a fake clock installed.
    int passes_since_deadline_check = opt_.deadline_check_interval;

    while (true) {
      if (opt_.deadline.is_set() &&
          ++passes_since_deadline_check >= opt_.deadline_check_interval) {
        passes_since_deadline_check = 0;
        if (opt_.deadline.expired()) return LpStatus::kTimedOut;
      }
      if (iterations_ >= max_iter_) return LpStatus::kIterationLimit;
      if (inv_.updates_since_factorize() >= opt_.refactor_interval ||
          (inv_.updates_since_factorize() > 0 &&
           inv_.work_nnz() > 2 * inv_.factor_nnz() +
                                40u * static_cast<std::size_t>(m_) + 1000u)) {
        if (!refactorize()) return LpStatus::kNumericalError;
        dual_fresh = false;  // refresh bounds incremental drift
      }
      if (phase == 1 && total_infeasibility() <= feas_total_tol()) {
        return LpStatus::kOptimal;  // feasible; caller moves to phase 2
      }

      const bool bland = degenerate_streak > opt_.bland_threshold;

      // Pricing. Outside incremental mode every pass recomputes every
      // reduced cost; incremental mode refreshes on basis refactorization.
      bool refreshed = false;
      if (!inc_mode || !dual_fresh) {
        full_price(phase);
        dual_fresh = true;
        refreshed = true;
      }

      int dir = 0;
      int entering = select_entering(bland, &dir);
      if (entering < 0 && !refreshed) {
        // Maintained reduced costs claim optimality: confirm against an
        // exact full pass before believing them.
        full_price(phase);
        dual_fresh = true;
        entering = select_entering(bland, &dir);
      }
      if (entering < 0) {
        // Phase 1: stalled with residual infeasibility => infeasible (checked
        // by the caller). Phase 2: optimal.
        return LpStatus::kOptimal;
      }

      // FTRAN: w = B^{-1} A_entering (in basis-position space).
      std::fill(w.begin(), w.end(), 0.0);
      seeds_.clear();
      for (int k = lp_.a.col_start[entering];
           k < lp_.a.col_start[entering + 1]; ++k) {
        w[static_cast<std::size_t>(lp_.a.row_index[k])] =
            lp_.a.value[static_cast<std::size_t>(k)];
        seeds_.push_back(lp_.a.row_index[k]);
      }
      inv_.ftran(w, seeds_, &w_nz);

      // Ratio test. The entering variable moves by t >= 0 in direction
      // `dir`; basic variable at position p changes at rate -dir * w[p].
      const double kNone = kInf;
      double limit = kNone;
      int leave_pos = -1;
      double leave_target = 0.0;
      // Entering variable's own bound-flip breakpoint.
      double flip_limit = kNone;
      if (vstat_[static_cast<std::size_t>(entering)] != VStat::kFree) {
        const double lo = lp_.lower[static_cast<std::size_t>(entering)];
        const double hi = lp_.upper[static_cast<std::size_t>(entering)];
        if (std::isfinite(lo) && std::isfinite(hi)) flip_limit = hi - lo;
      }

      const double negdir = -static_cast<double>(dir);

      // Pass 1: tightest breakpoint.
      double min_ratio = kNone;
      if (phase == 2) {
        // Branchless over w's nonzeros: an infinite target or a sub-tolerance
        // pivot yields ratio = +inf, which never tightens the minimum —
        // identical selection to the guarded loop. A zero of w is such a
        // pivot, so skipping the zeros changes nothing.
        for (int p : w_nz) {
          const double alpha = negdir * w[static_cast<std::size_t>(p)];
          const double target = alpha > 0.0
                                    ? ub_basic_[static_cast<std::size_t>(p)]
                                    : lb_basic_[static_cast<std::size_t>(p)];
          const double r = (target - xb_[static_cast<std::size_t>(p)]) / alpha;
          const double ratio =
              std::abs(alpha) < opt_.pivot_tol ? kInf : (r > 0.0 ? r : 0.0);
          min_ratio = ratio < min_ratio ? ratio : min_ratio;
        }
      } else {
        for (int p : w_nz) {
          const double alpha = negdir * w[static_cast<std::size_t>(p)];
          if (std::abs(alpha) < opt_.pivot_tol) continue;
          const double v = xb_[static_cast<std::size_t>(p)];
          const double lo = lb_basic_[static_cast<std::size_t>(p)];
          const double hi = ub_basic_[static_cast<std::size_t>(p)];
          double target;
          if (alpha > 0.0) {
            // Value increasing: a below-lower infeasible variable first
            // reaches its lower bound; otherwise it blocks at its upper.
            if (v < lo - opt_.feas_tol) {
              target = lo;
            } else if (std::isfinite(hi)) {
              target = hi;
            } else {
              continue;
            }
            if (v > hi + opt_.feas_tol) continue;  // worsening leg
          } else {
            if (v > hi + opt_.feas_tol) {
              target = hi;
            } else if (std::isfinite(lo)) {
              target = lo;
            } else {
              continue;
            }
            if (v < lo - opt_.feas_tol) continue;
          }
          const double ratio = std::max(0.0, (target - v) / alpha);
          if (ratio < min_ratio) min_ratio = ratio;
        }
      }

      // Pass 2: among near-minimal breakpoints pick the largest pivot (or
      // the lowest index under Bland's rule). Ties go to the first position,
      // so w_nz must ascend.
      if (min_ratio < kNone) {
        const double cutoff = min_ratio + opt_.feas_tol;
        double best_pivot = 0.0;
        for (int p : w_nz) {
          const double alpha = negdir * w[static_cast<std::size_t>(p)];
          if (std::abs(alpha) < opt_.pivot_tol) continue;
          const double v = xb_[static_cast<std::size_t>(p)];
          const double lo = lb_basic_[static_cast<std::size_t>(p)];
          const double hi = ub_basic_[static_cast<std::size_t>(p)];
          double target;
          if (alpha > 0.0) {
            if (phase == 1 && v < lo - opt_.feas_tol) {
              target = lo;
            } else if (std::isfinite(hi)) {
              target = hi;
            } else {
              continue;
            }
            if (phase == 1 && v > hi + opt_.feas_tol) continue;
          } else {
            if (phase == 1 && v > hi + opt_.feas_tol) {
              target = hi;
            } else if (std::isfinite(lo)) {
              target = lo;
            } else {
              continue;
            }
            if (phase == 1 && v < lo - opt_.feas_tol) continue;
          }
          const double ratio = std::max(0.0, (target - v) / alpha);
          if (ratio > cutoff) continue;
          if (bland) {
            if (leave_pos < 0 ||
                basis_[static_cast<std::size_t>(p)] <
                    basis_[static_cast<std::size_t>(leave_pos)]) {
              leave_pos = p;
              leave_target = target;
              limit = ratio;
            }
          } else if (std::abs(alpha) > best_pivot) {
            best_pivot = std::abs(alpha);
            leave_pos = p;
            leave_target = target;
            limit = ratio;
          }
        }
      }

      const bool flip_first = flip_limit < limit;
      double step = flip_first ? flip_limit : limit;
      if (!std::isfinite(step)) {
        if (phase == 2) return LpStatus::kUnbounded;
        // An improving phase-1 direction must hit a breakpoint; not finding
        // one is numerical trouble. Refactor once and retry, then give up.
        if (++stall_refactors > 3) return LpStatus::kNumericalError;
        if (!refactorize()) return LpStatus::kNumericalError;
        dual_fresh = false;
        continue;
      }
      stall_refactors = 0;
      ++iterations_;
      if (phase == 1) ++phase1_iterations_;
      degenerate_streak = step < 1e-10 ? degenerate_streak + 1 : 0;

      // Apply the step to the basic values: xb_ += w * scale, with the
      // dense axpy's bits. Where w == 0 the term is an exact +-0, which
      // changes only a -0.0 basic value (into +0.0, unless the term is -0.0
      // too), so those positions are walked from neg_zero_. A sum is -0.0
      // only if both terms are, so no -0.0 appears outside the list.
      {
        const double scale = negdir * step;
        for (int p : w_nz) {
          xb_[static_cast<std::size_t>(p)] +=
              w[static_cast<std::size_t>(p)] * scale;
        }
        std::size_t kept = 0;
        for (int p : neg_zero_) {
          double& v = xb_[static_cast<std::size_t>(p)];
          if (!is_negative_zero(v)) continue;
          if (w[static_cast<std::size_t>(p)] == 0.0) {
            v += w[static_cast<std::size_t>(p)] * scale;
          }
          if (is_negative_zero(v)) neg_zero_[kept++] = p;
        }
        neg_zero_.resize(kept);
      }

      if (flip_first) {
        // Entering variable travels bound-to-bound; basis, duals and reduced
        // costs are all unchanged.
        vstat_[static_cast<std::size_t>(entering)] =
            dir > 0 ? VStat::kAtUpper : VStat::kAtLower;
        refresh_candidate(entering);
        continue;
      }

      // Basis change.
      const int leaving = basis_[static_cast<std::size_t>(leave_pos)];
      const double entering_start =
          vstat_[static_cast<std::size_t>(entering)] == VStat::kFree
              ? 0.0
              : nonbasic_value(entering);

      // One sparse pivot-row pass (rho = B^{-T} e_p under the *outgoing*
      // basis, alpha_j = rho . A_j through the row mirror) serves both the
      // incremental reduced-cost update d_j -= theta_d * alpha_j and the
      // Devex reference-weight update — the latter previously cost a full
      // O(n * nnz) column sweep per pivot.
      const bool weights = devex_score && !bland;
      const bool need_alpha = (inc_mode && dual_fresh) || weights;
      bool devex_reset = false;
      if (need_alpha) {
        std::fill(rho.begin(), rho.end(), 0.0);
        rho[static_cast<std::size_t>(leave_pos)] = 1.0;
        seeds_.assign(1, leave_pos);
        inv_.btran(rho, seeds_, &rho_nz);
        const double alpha_q = w[static_cast<std::size_t>(leave_pos)];
        const double wq = devex_w_[static_cast<std::size_t>(entering)];
        const double inv_aq2 = 1.0 / (alpha_q * alpha_q);
        const bool update_d = inc_mode && dual_fresh;
        const double theta_d =
            update_d ? d_[static_cast<std::size_t>(entering)] / alpha_q : 0.0;
        touched_.clear();
        for (int i : rho_nz) {
          const double ri = rho[static_cast<std::size_t>(i)];
          const int end = row_start_[static_cast<std::size_t>(i) + 1];
          for (int k = row_start_[static_cast<std::size_t>(i)]; k < end; ++k) {
            const int j = row_col_[static_cast<std::size_t>(k)];
            if (!touched_mark_[static_cast<std::size_t>(j)]) {
              touched_mark_[static_cast<std::size_t>(j)] = 1;
              touched_.push_back(j);
            }
            alpha_work_[static_cast<std::size_t>(j)] +=
                ri * row_val_[static_cast<std::size_t>(k)];
          }
        }
        for (int j : touched_) {
          const double alpha_j = alpha_work_[static_cast<std::size_t>(j)];
          alpha_work_[static_cast<std::size_t>(j)] = 0.0;
          touched_mark_[static_cast<std::size_t>(j)] = 0;
          if (alpha_j == 0.0) continue;
          if (vstat_[static_cast<std::size_t>(j)] == VStat::kBasic ||
              j == entering) {
            continue;
          }
          if (update_d) {
            d_[static_cast<std::size_t>(j)] -= theta_d * alpha_j;
            ++pricing_candidates_;
            refresh_candidate(j);
          }
          if (weights) {
            const double cand = alpha_j * alpha_j * inv_aq2 * wq;
            if (cand > devex_w_[static_cast<std::size_t>(j)]) {
              devex_w_[static_cast<std::size_t>(j)] = cand;
              if (cand > 1e10) devex_reset = true;
            }
          }
        }
        if (weights) {
          devex_w_[static_cast<std::size_t>(leaving)] =
              std::max(wq * inv_aq2, 1.0);
        }
        if (update_d) {
          // alpha_leaving = rho . B e_p = 1 exactly, so d_leaving = -theta_d.
          d_[static_cast<std::size_t>(leaving)] = -theta_d;
          d_[static_cast<std::size_t>(entering)] = 0.0;
          ++pricing_candidates_;
        }
      }

      if (!inv_.update(leave_pos, w, w_nz, opt_.pivot_tol)) {
        // Stale factorization made the pivot look acceptable when it is not;
        // rebuild and retry the whole iteration. The refactorization
        // recomputes the basic values the step moved and refreshes the
        // incremental d updates applied above for a pivot that never
        // happened.
        if (++stall_refactors > 3) return LpStatus::kNumericalError;
        if (!refactorize()) return LpStatus::kNumericalError;
        dual_fresh = false;
        continue;
      }
      basis_[static_cast<std::size_t>(leave_pos)] = entering;
      vstat_[static_cast<std::size_t>(entering)] = VStat::kBasic;
      double& entering_value = xb_[static_cast<std::size_t>(leave_pos)];
      const bool listed = is_negative_zero(entering_value);
      entering_value = entering_start + static_cast<double>(dir) * step;
      if (!listed && is_negative_zero(entering_value)) {
        neg_zero_.push_back(leave_pos);
      }
      lb_basic_[static_cast<std::size_t>(leave_pos)] =
          lp_.lower[static_cast<std::size_t>(entering)];
      ub_basic_[static_cast<std::size_t>(leave_pos)] =
          lp_.upper[static_cast<std::size_t>(entering)];
      const double leave_lo = lp_.lower[static_cast<std::size_t>(leaving)];
      vstat_[static_cast<std::size_t>(leaving)] =
          std::abs(leave_target - leave_lo) <= opt_.feas_tol ? VStat::kAtLower
                                                             : VStat::kAtUpper;
      // The touched columns were refreshed in the pivot-row pass; these two
      // changed status. Outside incremental phase 2 the next pass
      // full-prices and rebuilds the set anyway.
      refresh_candidate(entering);
      refresh_candidate(leaving);
      if (devex_reset) {
        // Reference framework degraded: restart the weights.
        devex_w_.assign(static_cast<std::size_t>(n_), 1.0);
      }
    }
  }

  LpSolution extract(LpStatus st) {
    LpSolution sol;
    sol.status = st;
    sol.iterations = iterations_;
    sol.phase1_iterations = phase1_iterations_;
    sol.refactorizations = refactorizations_;
    sol.phase1_seconds = phase1_seconds_;
    sol.phase2_seconds = phase2_seconds_;
    sol.warm_started = warm_started_;
    sol.pricing_candidates = pricing_candidates_;
    sol.x.assign(static_cast<std::size_t>(n_), 0.0);
    sol.basis.status.resize(static_cast<std::size_t>(n_));
    for (int j = 0; j < n_; ++j) {
      BasisStatus bs = BasisStatus::kNonbasicLower;
      switch (vstat_[static_cast<std::size_t>(j)]) {
        case VStat::kBasic: bs = BasisStatus::kBasic; break;
        case VStat::kAtLower: bs = BasisStatus::kNonbasicLower; break;
        case VStat::kAtUpper: bs = BasisStatus::kNonbasicUpper; break;
        case VStat::kFree: bs = BasisStatus::kNonbasicFree; break;
      }
      sol.basis.status[static_cast<std::size_t>(j)] = bs;
    }
    // kTimedOut (and kIterationLimit) deliberately fall through to full
    // extraction: the point reached so far is the "best basis" a retry can
    // warm-start from, even if it is not yet feasible or optimal.
    if (st == LpStatus::kInfeasible || st == LpStatus::kNumericalError) {
      return sol;
    }
    for (int j = 0; j < n_; ++j) {
      if (vstat_[static_cast<std::size_t>(j)] != VStat::kBasic) {
        sol.x[static_cast<std::size_t>(j)] = nonbasic_value(j);
      }
    }
    for (int p = 0; p < m_; ++p) {
      sol.x[static_cast<std::size_t>(basis_[static_cast<std::size_t>(p)])] =
          xb_[static_cast<std::size_t>(p)];
    }
    for (int j = 0; j < n_; ++j) {
      sol.objective += lp_.cost[static_cast<std::size_t>(j)] *
                       sol.x[static_cast<std::size_t>(j)];
    }
    // Duals and reduced costs from the final basis.
    std::vector<double> y(static_cast<std::size_t>(m_));
    for (int p = 0; p < m_; ++p) {
      y[static_cast<std::size_t>(p)] =
          lp_.cost[static_cast<std::size_t>(basis_[static_cast<std::size_t>(p)])];
    }
    inv_.btran(y);
    sol.dual = y;
    sol.reduced_cost.assign(static_cast<std::size_t>(n_), 0.0);
    for (int j = 0; j < n_; ++j) {
      double d = lp_.cost[static_cast<std::size_t>(j)];
      for (int k = lp_.a.col_start[j]; k < lp_.a.col_start[j + 1]; ++k) {
        d -= y[static_cast<std::size_t>(lp_.a.row_index[k])] *
             lp_.a.value[static_cast<std::size_t>(k)];
      }
      sol.reduced_cost[static_cast<std::size_t>(j)] = d;
    }
    return sol;
  }

  const Lp& lp_;
  SimplexOptions opt_;
  const Basis* warm_ = nullptr;
  bool warm_started_ = false;
  int m_ = 0;
  int n_ = 0;
  int max_iter_ = 0;
  int iterations_ = 0;
  int phase1_iterations_ = 0;
  int refactorizations_ = 0;
  long long pricing_candidates_ = 0;
  double phase1_seconds_ = 0.0;
  double phase2_seconds_ = 0.0;
  std::vector<int> basis_;
  std::vector<VStat> vstat_;
  std::vector<double> xb_;
  // Every position p with xb_[p] == -0.0, and after a basis change
  // perhaps the leaving position that no longer is: the next step drops it.
  std::vector<int> neg_zero_;
  std::vector<double> rhs_work_;   // recompute_basic_values() buffer
  std::vector<double> lb_basic_;   // bounds of basic variables by position
  std::vector<double> ub_basic_;
  std::vector<double> devex_w_;
  std::vector<double> y_;          // dual work vector for pricing
  std::vector<int> seeds_;         // the next solve's input nonzeros
  std::vector<double> d_;          // reduced costs (maintained in inc mode)
  // Improving nonbasic columns (improving_dir != 0) in no particular order,
  // and each column's slot in cand_ (-1 when absent).
  std::vector<int> cand_;
  std::vector<int> cand_pos_;
  std::vector<double> alpha_work_; // pivot-row scatter workspace (zeroed)
  std::vector<char> touched_mark_;
  std::vector<int> touched_;
  std::vector<int> row_start_;     // row-major mirror of lp_.a
  std::vector<int> row_col_;
  std::vector<double> row_val_;
  LuBasis inv_;
};

// The observer is the one per-thread hook (lp.h); the other four live in
// the SolveContext installed in util's task-context slot.
thread_local SolveObserver* active_solve_observer = nullptr;

const SolveContext& current_context() {
  static const SolveContext kNone;
  const void* installed = util::task_context();
  return installed != nullptr ? *static_cast<const SolveContext*>(installed)
                              : kNone;
}

// A copy of the installed context that remembers it as `enclosing`: a
// guard sets its own field on the copy and installs it.
SolveContext nested_context() {
  SolveContext context = current_context();
  context.enclosing = util::task_context();
  return context;
}

// Runs the simplex with the standard warm-retry contract: a warm-started
// solve that ends in numerical error is retried cold from the all-slack
// basis, and the failed attempt's iterations, refactorizations AND wall
// clock are summed into the final stats (the cold retry used to overwrite
// the seconds, under-reporting warm failures).
LpSolution run_simplex(const Lp& lp, const SimplexOptions& opt,
                       const Basis* warm) {
  Simplex s(lp, opt, warm);
  LpSolution sol = s.run();
  if (s.warm_started() && sol.status == LpStatus::kNumericalError) {
    static obs::Counter& warm_retries =
        obs::Registry::global().counter("arrow_solver_warm_retries_total");
    warm_retries.add();
    const int warm_iterations = sol.iterations;
    const int warm_phase1_iterations = sol.phase1_iterations;
    const int warm_refactorizations = sol.refactorizations;
    const long long warm_candidates = sol.pricing_candidates;
    const double warm_phase1_seconds = sol.phase1_seconds;
    const double warm_phase2_seconds = sol.phase2_seconds;
    Simplex cold(lp, opt);
    sol = cold.run();
    sol.iterations += warm_iterations;
    sol.phase1_iterations += warm_phase1_iterations;
    sol.refactorizations += warm_refactorizations;
    sol.pricing_candidates += warm_candidates;
    sol.phase1_seconds += warm_phase1_seconds;
    sol.phase2_seconds += warm_phase2_seconds;
  }
  return sol;
}

}  // namespace

ScopedSimplexOverride::ScopedSimplexOverride(const SimplexOptions& options)
    : options_(options), context_(nested_context()) {
  context_.simplex_override = &options_;
  util::set_task_context(&context_);
}

ScopedSimplexOverride::~ScopedSimplexOverride() {
  util::set_task_context(context_.enclosing);
}

const SimplexOptions* ScopedSimplexOverride::active() {
  return current_context().simplex_override;
}

ScopedSolveObserver::ScopedSolveObserver(SolveObserver observer)
    : observer_(std::move(observer)), previous_(active_solve_observer) {
  active_solve_observer = observer_ ? &observer_ : nullptr;
}

ScopedSolveObserver::~ScopedSolveObserver() {
  active_solve_observer = previous_;
}

SolveObserver* ScopedSolveObserver::active() { return active_solve_observer; }

ScopedWarmStart::ScopedWarmStart(WarmStartCache& cache)
    : context_(nested_context()) {
  context_.warm_cache = &cache;
  util::set_task_context(&context_);
}

ScopedWarmStart::~ScopedWarmStart() {
  util::set_task_context(context_.enclosing);
}

WarmStartCache* WarmStartCache::active() {
  return current_context().warm_cache;
}

ScopedSolveDeadline::ScopedSolveDeadline(const util::Deadline& deadline)
    : deadline_(deadline), context_(nested_context()) {
  previous_ = context_.deadline;
  context_.deadline = this;
  util::set_task_context(&context_);
}

ScopedSolveDeadline::~ScopedSolveDeadline() {
  util::set_task_context(context_.enclosing);
}

util::Deadline ScopedSolveDeadline::active_deadline() {
  util::Deadline d;
  for (const ScopedSolveDeadline* g = current_context().deadline; g != nullptr;
       g = g->previous_) {
    d = util::Deadline::earlier(d, g->deadline_);
  }
  return d;
}

void ScopedSolveDeadline::note_timeout() {
  for (ScopedSolveDeadline* g = current_context().deadline; g != nullptr;
       g = g->previous_) {
    ++g->timeouts_;
  }
}

ScopedBasisTag::ScopedBasisTag(std::uint64_t tag)
    : context_(nested_context()) {
  context_.basis_tag = tag;
  util::set_task_context(&context_);
}

ScopedBasisTag::~ScopedBasisTag() {
  util::set_task_context(context_.enclosing);
}

std::uint64_t ScopedBasisTag::active() { return current_context().basis_tag; }

bool WarmStartCache::find(int rows, int cols, std::uint64_t tag,
                                Basis* out) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(WarmKey{rows, cols, tag});
  if (it == entries_.end()) return false;
  ++hits_;
  *out = it->second;
  return true;
}

void WarmStartCache::store(int rows, int cols, Basis basis,
                                 std::uint64_t tag) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[WarmKey{rows, cols, tag}] = std::move(basis);
  ++stores_;
}

void WarmStartCache::preload(int rows, int cols, Basis basis,
                                   std::uint64_t tag) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_[WarmKey{rows, cols, tag}] = std::move(basis);
}

LpSolution solve_lp(const Lp& lp, const SimplexOptions& options,
                    const Basis* warm_start) {
  ARROW_CHECK(lp.a.cols == static_cast<int>(lp.cost.size()), "cost size");
  ARROW_CHECK(lp.a.cols == static_cast<int>(lp.lower.size()), "lower size");
  ARROW_CHECK(lp.a.cols == static_cast<int>(lp.upper.size()), "upper size");
  ARROW_CHECK(lp.a.rows == static_cast<int>(lp.rhs.size()), "rhs size");
  const SolveContext& context = current_context();
  SimplexOptions opt =
      context.simplex_override ? *context.simplex_override : options;
  // The binding deadline is the earliest of the caller's and every ambient
  // guard's — an override (which replaces the caller's options wholesale)
  // can therefore never loosen a budget imposed by an enclosing scope.
  opt.deadline = util::Deadline::earlier(opt.deadline,
                                         ScopedSolveDeadline::active_deadline());
  WarmStartCache* cache = context.warm_cache;
  const Basis* warm = warm_start;
  Basis cached;
  if (warm == nullptr && cache != nullptr &&
      cache->find(lp.a.rows, lp.a.cols, context.basis_tag, &cached)) {
    warm = &cached;
  }
  OBS_SPAN("lp_solve");
  const auto solve_t0 = std::chrono::steady_clock::now();

  LpSolution sol = run_simplex(lp, opt, warm);

  if (cache != nullptr &&
      (sol.status == LpStatus::kOptimal ||
       sol.status == LpStatus::kTimedOut) &&
      !sol.basis.empty()) {
    // A timed-out basis is the furthest vertex the budget bought; storing it
    // lets the retry (or the next period's solve) resume from there instead
    // of repeating the pivots already paid for.
    cache->store(lp.a.rows, lp.a.cols, sol.basis, context.basis_tag);
  }
  if (sol.status == LpStatus::kTimedOut) {
    static obs::Counter& timeouts =
        obs::Registry::global().counter("arrow_solver_timeouts_total");
    timeouts.add();
    ScopedSolveDeadline::note_timeout();
  }
  // Metrics record what the solver *returned* — reads only, after the
  // result is final, so instrumented and uninstrumented runs pivot
  // identically.
  {
    auto& reg = obs::Registry::global();
    static obs::Counter& solves = reg.counter("arrow_solver_solves_total");
    static obs::Counter& iters =
        reg.counter("arrow_solver_simplex_iterations_total");
    static obs::Counter& p1_iters =
        reg.counter("arrow_solver_phase1_iterations_total");
    static obs::Counter& refactors =
        reg.counter("arrow_solver_refactorizations_total");
    static obs::Counter& warm_starts =
        reg.counter("arrow_solver_warm_starts_total");
    static obs::Counter& cold_starts =
        reg.counter("arrow_solver_cold_starts_total");
    static obs::Counter& pricing_cands =
        reg.counter("arrow_solver_pricing_candidates");
    static obs::Histogram& solve_seconds =
        reg.histogram("arrow_solver_solve_seconds");
    static obs::Histogram& phase1_seconds =
        reg.histogram("arrow_solver_phase1_seconds");
    static obs::Histogram& phase2_seconds =
        reg.histogram("arrow_solver_phase2_seconds");
    solves.add();
    iters.add(static_cast<std::uint64_t>(sol.iterations));
    p1_iters.add(static_cast<std::uint64_t>(sol.phase1_iterations));
    refactors.add(static_cast<std::uint64_t>(sol.refactorizations));
    (sol.warm_started ? warm_starts : cold_starts).add();
    pricing_cands.add(static_cast<std::uint64_t>(sol.pricing_candidates));
    solve_seconds.observe(std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - solve_t0)
                              .count());
    phase1_seconds.observe(sol.phase1_seconds);
    phase2_seconds.observe(sol.phase2_seconds);
  }
  if (SolveObserver* observer = ScopedSolveObserver::active()) {
    (*observer)(lp, sol);
  }
  return sol;
}

}  // namespace arrow::solver
