// Solver raw-speed report: pivots/sec, pricing work and warm-start savings
// on an LP corpus captured from a real solve_arrow run.
//
// Gates (nonzero exit on violation):
//   * both pricing modes (Dantzig, incremental) reach the same optimum on
//     the corpus;
//   * incremental pricing examines no more candidates than the Dantzig
//     full-recomputation oracle in aggregate (candidates/pivot is the
//     pricing-work proxy — if maintaining reduced costs prices MORE than
//     recomputing them, the mirror is pure overhead);
//   * warm-starting from the optimal basis takes no more pivots than cold;
//   * the corpus pivot and refactorization totals under the default pricing
//     equal the pinned values below. The LU's pivot order decides every
//     simplex pivot, so this catches a factorization change that moves
//     the pivot sequence, not only one that slows it down.
//
// It also times the LU basis on the final basis of the largest corpus LP:
// factorize, FTRAN of the dense rhs, the factor's nonzeros, and the two
// solves a pivot runs — FTRAN of a structural column (lu_ftran_col_us) and
// BTRAN of a unit vector e_p (lu_btran_unit_us), medians over seeded
// samples (lu_* keys).
//
// Environment knobs: ARROW_BENCH_FAST=1 shrinks to the B4 topology for
// CI-speed runs (bench-smoke). Results land in BENCH_simplex.json
// (bench_json.h).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "solver/basis.h"
#include "solver/lp.h"
#include "te/arrow.h"
#include "te/basic.h"
#include "topo/builders.h"
#include "traffic/traffic.h"
#include "util/parallel.h"

using namespace arrow;
using solver::Lp;
using solver::LpSolution;
using solver::LpStatus;
using solver::Pricing;
using solver::SimplexOptions;
using Clock = std::chrono::steady_clock;

namespace {

bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] == '1';
}

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

// Corpus totals under the default pricing (incremental), pinned per corpus.
struct CorpusPin {
  long long pivots;
  long long refactorizations;
};
constexpr CorpusPin kPinnedFast{1010, 17};  // B4 corpus, ARROW_BENCH_FAST=1
constexpr CorpusPin kPinnedFull{2927, 47};  // IBM corpus

}  // namespace

int main() {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const bool fast_mode = env_flag("ARROW_BENCH_FAST");
  const topo::Network net = fast_mode ? topo::build_b4() : topo::build_ibm();
  util::Rng rng(404);
  traffic::TrafficParams tp;
  tp.num_matrices = 1;
  const auto ms = traffic::generate_traffic(net, tp, rng);
  scenario::ScenarioParams sp;
  sp.probability_cutoff = fast_mode ? 0.002 : 0.001;
  auto scen = scenario::generate_scenarios(net, sp, rng);
  const auto scenarios = scenario::remove_disconnecting(net, scen.scenarios);
  te::TunnelParams tun;
  tun.tunnels_per_flow = fast_mode ? 4 : 6;
  te::TeInput input(net, ms[0], scenarios, tun);
  input.scale_demands(te::max_satisfiable_scale(input) * 0.9);
  te::ArrowParams params;
  params.tickets.num_tickets = fast_mode ? 3 : 6;
  const auto prepared = te::prepare_arrow(input, params, rng);

  bench::BenchJson out("simplex");
  out.set("topology", net.name);
  out.set("scenarios", static_cast<long long>(scenarios.size()));
  out.set("threads", 1);  // solves are single-threaded by design
  out.set("hardware_concurrency",
          static_cast<long long>(std::thread::hardware_concurrency()));

  bool ok = true;

  // --- corpus capture ------------------------------------------------------
  std::vector<Lp> corpus;
  {
    solver::ScopedSolveObserver capture(
        [&](const Lp& lp, LpSolution& sol) {
          (void)sol;
          if (corpus.size() < 12) corpus.push_back(lp);
        });
    const auto sol = te::solve_arrow(input, prepared, params);
    if (!sol.optimal) {
      std::fprintf(stderr, "FAIL: corpus solve_arrow did not reach optimal\n");
      ok = false;
    }
  }
  out.set("corpus_lps", static_cast<long long>(corpus.size()));
  long long corpus_rows = 0, corpus_cols = 0;
  for (const Lp& lp : corpus) {
    corpus_rows += lp.a.rows;
    corpus_cols += lp.a.cols;
  }
  out.set("corpus_rows", corpus_rows);
  out.set("corpus_cols", corpus_cols);
  std::printf("corpus: %zu LPs from solve_arrow on %s (%lld rows, %lld cols "
              "total)\n", corpus.size(), net.name.c_str(), corpus_rows,
              corpus_cols);

  // --- pivots/sec and per-mode pricing work --------------------------------
  struct ModeStats {
    long long pivots = 0;
    long long refactorizations = 0;
    long long candidates = 0;
    double seconds = 0.0;
    double objective_sum = 0.0;
  };
  const std::pair<const char*, Pricing> modes[] = {
      {"dantzig", Pricing::kDantzig},
      {"incremental", Pricing::kIncremental},
  };
  ModeStats stats[2];
  for (int m = 0; m < 2; ++m) {
    for (const Lp& lp : corpus) {
      SimplexOptions opt;
      opt.pricing = modes[m].second;
      const LpSolution sol = solver::solve_lp(lp, opt);
      if (sol.status != LpStatus::kOptimal) {
        std::fprintf(stderr, "FAIL: pricing mode %s did not reach optimal\n",
                     modes[m].first);
        ok = false;
        continue;
      }
      stats[m].pivots += sol.iterations;
      stats[m].refactorizations += sol.refactorizations;
      stats[m].candidates += sol.pricing_candidates;
      stats[m].seconds += sol.phase1_seconds + sol.phase2_seconds;
      stats[m].objective_sum += sol.objective;
    }
    const ModeStats& s = stats[m];
    const double pps = s.seconds > 0.0 ? s.pivots / s.seconds : 0.0;
    const double cpp =
        s.pivots > 0 ? static_cast<double>(s.candidates) / s.pivots : 0.0;
    const std::string k = modes[m].first;
    out.set(k + "_pivots", s.pivots);
    out.set(k + "_pivots_per_sec", pps);
    out.set(k + "_candidates_per_pivot", cpp);
    std::printf("%-11s %6lld pivots, %9.0f pivots/sec, %8.1f candidates/"
                "pivot\n", modes[m].first, s.pivots, pps, cpp);
  }
  // Both modes must agree on the summed optimum (same tolerance discipline
  // as tests/pricing_test.cc, scaled to the corpus).
  const double scale = 1.0 + std::abs(stats[0].objective_sum);
  if (std::abs(stats[1].objective_sum - stats[0].objective_sum) >
      1e-5 * scale) {
    std::fprintf(stderr, "FAIL: incremental pricing disagrees with dantzig "
                 "(%.17g vs %.17g)\n", stats[1].objective_sum,
                 stats[0].objective_sum);
    ok = false;
  }
  // Incremental pricing must do less pricing work than full recomputation —
  // that is the point of maintaining the reduced costs on the row mirror.
  if (stats[1].candidates > stats[0].candidates) {
    std::fprintf(stderr, "FAIL: incremental pricing examined %lld candidates "
                 "vs dantzig's %lld\n", stats[1].candidates,
                 stats[0].candidates);
    ok = false;
  }
  out.set("incremental_vs_dantzig_candidates",
          stats[0].candidates > 0
              ? static_cast<double>(stats[1].candidates) / stats[0].candidates
              : 0.0);

  // --- pinned pivot sequence -----------------------------------------------
  const ModeStats& dflt = stats[1];
  const CorpusPin pin = fast_mode ? kPinnedFast : kPinnedFull;
  out.set("corpus_pivots", dflt.pivots);
  out.set("corpus_refactorizations", dflt.refactorizations);
  std::printf("default pricing: %lld pivots, %lld refactorizations (pinned "
              "%lld, %lld)\n", dflt.pivots, dflt.refactorizations, pin.pivots,
              pin.refactorizations);
  if (dflt.pivots != pin.pivots ||
      dflt.refactorizations != pin.refactorizations) {
    std::fprintf(stderr, "FAIL: corpus pivots/refactorizations %lld/%lld "
                 "differ from the pinned %lld/%lld: the pivot sequence "
                 "changed\n", dflt.pivots, dflt.refactorizations, pin.pivots,
                 pin.refactorizations);
    ok = false;
  }

  // --- LU factorization on the largest corpus LP ---------------------------
  const Lp* largest = nullptr;
  for (const Lp& lp : corpus) {
    if (largest == nullptr || lp.a.rows > largest->a.rows) largest = &lp;
  }
  double lu_factorize_ms = 0.0, lu_ftran_us = 0.0, lu_ftran_col_us = 0.0,
         lu_btran_unit_us = 0.0;
  long long lu_factor_nnz = 0;
  if (largest != nullptr) {
    const LpSolution sol = solver::solve_lp(*largest);
    const solver::SparseMatrix& a = largest->a;
    std::vector<solver::LuBasis::Column> cols;
    for (int j = 0; j < a.cols &&
                    sol.basis.status.size() == static_cast<std::size_t>(a.cols);
         ++j) {
      if (sol.basis.status[static_cast<std::size_t>(j)] !=
          solver::BasisStatus::kBasic) {
        continue;
      }
      auto& col = cols.emplace_back();
      for (int k = a.col_start[static_cast<std::size_t>(j)];
           k < a.col_start[static_cast<std::size_t>(j) + 1]; ++k) {
        col.emplace_back(a.row_index[static_cast<std::size_t>(k)],
                         a.value[static_cast<std::size_t>(k)]);
      }
    }
    solver::LuBasis lu;
    bool factored = static_cast<int>(cols.size()) == a.rows;
    std::vector<double> f_ms, ft_us, col_us, unit_us;
    for (int rep = 0; rep < 5 && factored; ++rep) {
      const double t0 = now_s();
      factored = lu.factorize(a.rows, cols, SimplexOptions{}.pivot_tol);
      f_ms.push_back((now_s() - t0) * 1e3);
    }
    for (int rep = 0; rep < 25 && factored; ++rep) {
      std::vector<double> x(largest->rhs);
      const double t0 = now_s();
      lu.ftran(x);
      ft_us.push_back((now_s() - t0) * 1e6);
    }
    // The slack columns come last, one per row.
    const int structural = a.cols - a.rows;
    util::Rng sample(1515);
    for (int rep = 0; rep < 200 && factored && structural > 0; ++rep) {
      const int j = sample.uniform_int(0, structural - 1);
      std::vector<double> x(static_cast<std::size_t>(a.rows), 0.0);
      for (int k = a.col_start[static_cast<std::size_t>(j)];
           k < a.col_start[static_cast<std::size_t>(j) + 1]; ++k) {
        x[static_cast<std::size_t>(a.row_index[static_cast<std::size_t>(k)])] =
            a.value[static_cast<std::size_t>(k)];
      }
      double t0 = now_s();
      lu.ftran(x);
      col_us.push_back((now_s() - t0) * 1e6);
      std::vector<double> y(static_cast<std::size_t>(a.rows), 0.0);
      y[static_cast<std::size_t>(sample.uniform_int(0, a.rows - 1))] = 1.0;
      t0 = now_s();
      lu.btran(y);
      unit_us.push_back((now_s() - t0) * 1e6);
    }
    if (!factored) {
      std::fprintf(stderr, "FAIL: the largest corpus LP's final basis did "
                   "not factorize\n");
      ok = false;
    } else {
      lu_factorize_ms = median(f_ms);
      lu_ftran_us = median(ft_us);
      if (!col_us.empty()) {
        lu_ftran_col_us = median(col_us);
        lu_btran_unit_us = median(unit_us);
      }
      lu_factor_nnz = static_cast<long long>(lu.factor_nnz());
    }
    out.set("lu_rows", static_cast<long long>(a.rows));
  }
  out.set("lu_factorize_ms", lu_factorize_ms);
  out.set("lu_ftran_us", lu_ftran_us);
  out.set("lu_ftran_col_us", lu_ftran_col_us);
  out.set("lu_btran_unit_us", lu_btran_unit_us);
  out.set("lu_factor_nnz", lu_factor_nnz);
  std::printf("LU on the largest LP's final basis: factorize %.3f ms, ftran "
              "%.1f us (column %.1f us, btran e_p %.1f us), %lld factor nnz\n",
              lu_factorize_ms, lu_ftran_us, lu_ftran_col_us, lu_btran_unit_us,
              lu_factor_nnz);

  // --- cold vs warm --------------------------------------------------------
  long long cold_pivots = 0, warm_pivots = 0;
  for (const Lp& lp : corpus) {
    const LpSolution cold = solver::solve_lp(lp);
    if (cold.status != LpStatus::kOptimal) continue;
    const LpSolution warm = solver::solve_lp(lp, {}, &cold.basis);
    cold_pivots += cold.iterations;
    warm_pivots += warm.iterations;
  }
  out.set("cold_pivots", cold_pivots);
  out.set("warm_pivots_from_optimal_basis", warm_pivots);
  std::printf("warm start: %lld pivots cold, %lld re-solving from the "
              "optimal basis\n", cold_pivots, warm_pivots);
  if (warm_pivots > cold_pivots) {
    std::fprintf(stderr, "FAIL: warm start from the optimal basis took MORE "
                 "pivots than cold (%lld vs %lld)\n", warm_pivots,
                 cold_pivots);
    ok = false;
  }

  out.set("status", std::string(ok ? "ok" : "fail"));
  out.write();
  return ok ? 0 : 1;
}
