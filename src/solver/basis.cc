#include "solver/basis.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>

#include "util/check.h"

namespace arrow::solver {

namespace {
constexpr double kDropTol = 1e-12;
// Relative threshold for partial pivoting inside the Markowitz search: a
// pivot must be at least this fraction of the column's largest entry.
constexpr double kRelPivot = 0.05;
}  // namespace

// `w` is the working matrix, column-wise: the caller's columns, taken by
// value. Entries may go stale when rows deactivate (filtered on read).
// Rebuilt per touched column during updates.
bool LuBasis::factorize(int m, std::vector<Column> w, double pivot_tol) {
  ARROW_CHECK(static_cast<int>(w.size()) == m, "basis size mismatch");
  m_ = 0;  // no solves until the factorization succeeds
  pivot_row_.assign(static_cast<std::size_t>(m), -1);
  pivot_col_.assign(static_cast<std::size_t>(m), -1);
  diag_.assign(static_cast<std::size_t>(m), 0.0);
  l_start_.assign(static_cast<std::size_t>(m) + 1, 0);
  l_row_.clear();
  l_val_.clear();
  u_start_.assign(static_cast<std::size_t>(m) + 1, 0);
  u_pos_.clear();
  u_val_.clear();
  etas_.clear();
  eta_pos_.clear();
  eta_val_.clear();
  lu_nnz_ = 0;
  eta_nnz_ = 0;

  // Row lists keep their capacity from the last factorization.
  auto& rows_cols = rows_cols_;
  rows_cols.resize(static_cast<std::size_t>(m));
  for (auto& cols : rows_cols) cols.clear();
  std::vector<int> col_nnz(static_cast<std::size_t>(m), 0);
  std::vector<int> row_nnz(static_cast<std::size_t>(m), 0);
  std::vector<char> row_active(static_cast<std::size_t>(m), 1);
  std::vector<char> col_active(static_cast<std::size_t>(m), 1);
  // clean[j]: every active-row entry of column j is above kDropTol and
  // col_nnz[j] counts exactly those, so an update that only removes the
  // pivot row can skip the rebuild (see the elimination below).
  std::vector<char> clean(static_cast<std::size_t>(m), 1);
  for (int j = 0; j < m; ++j) {
    col_nnz[static_cast<std::size_t>(j)] =
        static_cast<int>(w[static_cast<std::size_t>(j)].size());
    for (const auto& [r, v] : w[static_cast<std::size_t>(j)]) {
      rows_cols[static_cast<std::size_t>(r)].push_back(j);
      ++row_nnz[static_cast<std::size_t>(r)];
      if (std::abs(v) <= kDropTol) clean[static_cast<std::size_t>(j)] = 0;
    }
  }

  // Pivot-column candidates: a lazy min-heap of (max(col_nnz, 1), j) packed
  // into one word. A column is pushed again whenever its key changes; an
  // entry whose column is already pivoted, or whose key is out of date, is
  // dropped when it surfaces. The first live entry is therefore the lowest-
  // index column of smallest count, with counts 0 and 1 ranked equal: the
  // column a left-to-right scan that stops at the first count <= 1 picks.
  // Choosing all m pivots costs O((m + column updates) log m) here instead
  // of the scan's O(m^2).
  const auto key = [&](int j) {
    return static_cast<std::uint64_t>(
               std::max(col_nnz[static_cast<std::size_t>(j)], 1))
               << 32 |
           static_cast<std::uint32_t>(j);
  };
  std::vector<std::uint64_t> heap(static_cast<std::size_t>(m));
  for (int j = 0; j < m; ++j) heap[static_cast<std::size_t>(j)] = key(j);
  std::make_heap(heap.begin(), heap.end(), std::greater<>());

  std::vector<double> acc(static_cast<std::size_t>(m), 0.0);
  std::vector<char> in_acc(static_cast<std::size_t>(m), 0);
  std::vector<int> acc_rows;
  acc_rows.reserve(static_cast<std::size_t>(m));
  Column live;     // active entries of the pivot column, reused per step
  Column rebuilt;  // an updated column, swapped in; reused per column

  for (int step = 0; step < m; ++step) {
    // --- pivot column: smallest active column count -----------------------
    int c = -1;
    while (c < 0 && !heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), std::greater<>());
      const std::uint64_t top = heap.back();
      heap.pop_back();
      const int j = static_cast<int>(top & 0xffffffffu);
      if (col_active[static_cast<std::size_t>(j)] && top == key(j)) c = j;
    }
    if (c < 0) return false;

    // Gather active entries of column c.
    live.clear();
    double colmax = 0.0;
    for (const auto& [r, v] : w[static_cast<std::size_t>(c)]) {
      if (row_active[static_cast<std::size_t>(r)]) {
        live.emplace_back(r, v);
        colmax = std::max(colmax, std::abs(v));
      }
    }
    if (colmax < pivot_tol) return false;  // singular

    // --- pivot row: smallest row count subject to threshold pivoting ------
    const double threshold = std::max(pivot_tol, kRelPivot * colmax);
    int r = -1;
    int best_row_nnz = m + 1;
    double d = 0.0;
    for (const auto& [ri, v] : live) {
      if (std::abs(v) < threshold) continue;
      if (row_nnz[static_cast<std::size_t>(ri)] < best_row_nnz) {
        best_row_nnz = row_nnz[static_cast<std::size_t>(ri)];
        r = ri;
        d = v;
      }
    }
    ARROW_CHECK(r >= 0, "threshold pivoting found no candidate");

    pivot_row_[static_cast<std::size_t>(step)] = r;
    pivot_col_[static_cast<std::size_t>(step)] = c;
    diag_[static_cast<std::size_t>(step)] = d;

    const std::size_t l_begin = l_row_.size();
    for (const auto& [ri, v] : live) {
      if (ri != r && std::abs(v) > kDropTol) {
        l_row_.push_back(ri);
        l_val_.push_back(v / d);
      }
    }
    const std::size_t l_end = l_row_.size();
    l_start_[static_cast<std::size_t>(step) + 1] = static_cast<int>(l_end);
    lu_nnz_ += l_end - l_begin + 1;

    // Deactivate pivot row/column before the updates so rebuilds drop them.
    row_active[static_cast<std::size_t>(r)] = 0;
    col_active[static_cast<std::size_t>(c)] = 0;
    for (const auto& [ri, v] : live) {
      (void)v;
      if (row_active[static_cast<std::size_t>(ri)]) {
        --row_nnz[static_cast<std::size_t>(ri)];
      }
    }

    // --- eliminate: update every active column containing pivot row r -----
    const std::size_t u_begin = u_pos_.size();
    for (int cj : rows_cols[static_cast<std::size_t>(r)]) {
      if (!col_active[static_cast<std::size_t>(cj)]) continue;
      auto& col = w[static_cast<std::size_t>(cj)];
      const auto entry = std::find_if(col.begin(), col.end(), [r](const auto& e) {
        return e.first == r;
      });
      if (entry == col.end() || std::abs(entry->second) <= kDropTol) continue;
      const double u = entry->second;
      u_pos_.push_back(cj);
      u_val_.push_back(u);
      const std::uint64_t old_key = key(cj);

      if (l_begin == l_end && clean[static_cast<std::size_t>(cj)]) {
        // No multipliers: the update only drops row r, which a rebuild does
        // in O(|col|), making a long column quadratic over its pivots. Leave
        // the entry stale instead (every reader skips inactive rows), zeroed
        // so a repeated rows_cols visit skips it like a missing entry, and
        // compact in entry order once stale entries outnumber live ones.
        entry->second = 0.0;
        const int live_nnz = --col_nnz[static_cast<std::size_t>(cj)];
        if (col.size() > 2 * static_cast<std::size_t>(live_nnz) + 16) {
          col.erase(std::remove_if(col.begin(), col.end(),
                                   [&](const auto& e) {
                                     return !row_active[static_cast<std::size_t>(
                                         e.first)];
                                   }),
                    col.end());
        }
      } else {
        // col := col - u * lcol, rebuilt through a dense accumulator.
        acc_rows.clear();
        for (const auto& [ri, v] : col) {
          if (!row_active[static_cast<std::size_t>(ri)]) continue;
          acc[static_cast<std::size_t>(ri)] = v;
          in_acc[static_cast<std::size_t>(ri)] = 1;
          acc_rows.push_back(ri);
        }
        for (std::size_t e = l_begin; e < l_end; ++e) {
          const int ri = l_row_[e];
          const double l = l_val_[e];
          if (!row_active[static_cast<std::size_t>(ri)]) continue;
          if (!in_acc[static_cast<std::size_t>(ri)]) {
            acc[static_cast<std::size_t>(ri)] = 0.0;
            in_acc[static_cast<std::size_t>(ri)] = 1;
            acc_rows.push_back(ri);
            rows_cols[static_cast<std::size_t>(ri)].push_back(cj);  // fill-in
            ++row_nnz[static_cast<std::size_t>(ri)];
          }
          acc[static_cast<std::size_t>(ri)] -= l * u;
        }
        rebuilt.clear();
        rebuilt.reserve(acc_rows.size());
        for (int ri : acc_rows) {
          const double v = acc[static_cast<std::size_t>(ri)];
          if (std::abs(v) > kDropTol) {
            rebuilt.emplace_back(ri, v);
          } else {
            --row_nnz[static_cast<std::size_t>(ri)];  // cancellation
          }
          in_acc[static_cast<std::size_t>(ri)] = 0;
        }
        col_nnz[static_cast<std::size_t>(cj)] =
            static_cast<int>(rebuilt.size());
        clean[static_cast<std::size_t>(cj)] = 1;
        col.swap(rebuilt);
      }
      if (key(cj) != old_key) {
        heap.push_back(key(cj));
        std::push_heap(heap.begin(), heap.end(), std::greater<>());
      }
    }
    u_start_[static_cast<std::size_t>(step) + 1] =
        static_cast<int>(u_pos_.size());
    lu_nnz_ += u_pos_.size() - u_begin;
  }
  m_ = m;
  index_factors();
  return true;
}

void LuBasis::index_factors() {
  const auto m = static_cast<std::size_t>(m_);
  step_of_row_.resize(m);
  step_of_pos_.resize(m);
  zero_by_pos_.resize(m);
  zero_by_row_.resize(m);
  l_steps_.clear();
  for (int k = 0; k < m_; ++k) {
    const auto sk = static_cast<std::size_t>(k);
    step_of_row_[static_cast<std::size_t>(pivot_row_[sk])] = k;
    step_of_pos_[static_cast<std::size_t>(pivot_col_[sk])] = k;
    const double zero = std::copysign(0.0, diag_[sk]);
    zero_by_pos_[static_cast<std::size_t>(pivot_col_[sk])] = zero;
    zero_by_row_[static_cast<std::size_t>(pivot_row_[sk])] = zero;
    if (l_start_[sk + 1] > l_start_[sk]) l_steps_.push_back(k);
  }
  // Column index of U by counting sort; steps come out ascending.
  ucol_start_.assign(m + 1, 0);
  for (int p : u_pos_) ++ucol_start_[static_cast<std::size_t>(p) + 1];
  for (std::size_t p = 0; p < m; ++p) ucol_start_[p + 1] += ucol_start_[p];
  ucol_step_.resize(u_pos_.size());
  std::vector<int> fill(ucol_start_.begin(), ucol_start_.end() - 1);
  for (int k = 0; k < m_; ++k) {
    for (int e = u_start_[static_cast<std::size_t>(k)];
         e < u_start_[static_cast<std::size_t>(k) + 1]; ++e) {
      ucol_step_[static_cast<std::size_t>(
          fill[static_cast<std::size_t>(u_pos_[static_cast<std::size_t>(e)])]++)] = k;
    }
  }
  work_.resize(m);
  reached_.assign(m, 0);
  touched_.assign((m + 63) / 64, 0);
}

namespace {
// Once a solve's reach (seeded plus reached steps) passes m / kDenseReach,
// the rest of its U pass runs as a dense sweep: the heap and the marks
// would cost more than the steps they skip.
constexpr int kDenseReach = 8;

bool is_positive_zero(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits == 0;
}
}  // namespace

void LuBasis::touch(int i) {
  touched_[static_cast<std::size_t>(i) >> 6] |= std::uint64_t{1} << (i & 63);
}

void LuBasis::collect_nonzeros(const std::vector<double>& v, bool dense,
                               std::vector<int>* nz) {
  if (nz != nullptr) nz->clear();
  if (dense) {
    std::fill(touched_.begin(), touched_.end(), 0);
    for (int i = 0; nz != nullptr && i < m_; ++i) {
      if (v[static_cast<std::size_t>(i)] != 0.0) nz->push_back(i);
    }
    return;
  }
  // Walking the bitmap word by word yields the indexes in ascending order
  // without a sort; each word is cleared for the next solve.
  for (std::size_t word = 0; word < touched_.size(); ++word) {
    std::uint64_t bits = touched_[word];
    if (bits == 0) continue;
    touched_[word] = 0;
    for (; nz != nullptr && bits != 0; bits &= bits - 1) {
      const int i = static_cast<int>(word * 64) + std::countr_zero(bits);
      if (v[static_cast<std::size_t>(i)] != 0.0) nz->push_back(i);
    }
  }
}

// Every FTRAN step below performs the dense sweep's floating-point
// operations in the dense sweep's order; only steps that provably write
// what a dense sweep writes there are skipped.
void LuBasis::ftran(std::vector<double>& x, std::vector<int>* nz) {
  ARROW_CHECK(static_cast<int>(x.size()) == m_, "ftran size mismatch");
  // L pass in elimination order (row space); steps without multipliers
  // change nothing.
  for (int k : l_steps_) {
    const double v =
        x[static_cast<std::size_t>(pivot_row_[static_cast<std::size_t>(k)])];
    if (v == 0.0) continue;
    for (int e = l_start_[static_cast<std::size_t>(k)];
         e < l_start_[static_cast<std::size_t>(k) + 1]; ++e) {
      x[static_cast<std::size_t>(l_row_[static_cast<std::size_t>(e)])] -=
          l_val_[static_cast<std::size_t>(e)] * v;
    }
  }

  // U back substitution into basis-position space. A step whose pivot row
  // holds +0.0 and whose U row reads only zeros computes (+0.0 - u * ±0) /
  // diag = zero_by_pos_; every other step is seeded here or reached from
  // one that is.
  frontier_.clear();
  for (int i = 0; i < m_; ++i) {
    if (!is_positive_zero(x[static_cast<std::size_t>(i)])) {
      frontier_.push_back(step_of_row_[static_cast<std::size_t>(i)]);
    }
  }
  int reach = static_cast<int>(frontier_.size());
  bool dense = reach * kDenseReach > m_;
  int dense_from = m_ - 1;  // the dense sweep's first (highest) step
  std::copy(zero_by_pos_.begin(), zero_by_pos_.end(), work_.begin());
  const auto solve_step = [&](int k) {
    const auto sk = static_cast<std::size_t>(k);
    double s = x[static_cast<std::size_t>(pivot_row_[sk])];
    for (int e = u_start_[sk]; e < u_start_[sk + 1]; ++e) {
      s -= u_val_[static_cast<std::size_t>(e)] *
           work_[static_cast<std::size_t>(u_pos_[static_cast<std::size_t>(e)])];
    }
    const int p = pivot_col_[sk];
    work_[static_cast<std::size_t>(p)] = s / diag_[sk];
    return p;
  };
  if (!dense) {
    // Max-heap of reached steps: a step pops only after every higher step
    // it reads, and a step that solves to zero reaches nothing. Every
    // reached step above the popped one is done, so the dense sweep can
    // take over below it.
    for (int k : frontier_) reached_[static_cast<std::size_t>(k)] = 1;
    std::make_heap(frontier_.begin(), frontier_.end());
    while (!frontier_.empty()) {
      std::pop_heap(frontier_.begin(), frontier_.end());
      const int k = frontier_.back();
      frontier_.pop_back();
      reached_[static_cast<std::size_t>(k)] = 0;
      const int p = solve_step(k);
      touch(p);
      if (work_[static_cast<std::size_t>(p)] == 0.0) continue;
      for (int e = ucol_start_[static_cast<std::size_t>(p)];
           e < ucol_start_[static_cast<std::size_t>(p) + 1]; ++e) {
        const int dep = ucol_step_[static_cast<std::size_t>(e)];
        if (reached_[static_cast<std::size_t>(dep)]) continue;
        reached_[static_cast<std::size_t>(dep)] = 1;
        frontier_.push_back(dep);
        std::push_heap(frontier_.begin(), frontier_.end());
        ++reach;
      }
      if (reach * kDenseReach > m_) {
        for (int j : frontier_) reached_[static_cast<std::size_t>(j)] = 0;
        frontier_.clear();
        dense = true;
        dense_from = k - 1;
      }
    }
  }
  if (dense) {
    for (int k = dense_from; k >= 0; --k) solve_step(k);
  }

  // Product-form updates (position space), in order.
  const int* pos = eta_pos_.data();
  const double* val = eta_val_.data();
  for (const Eta& eta : etas_) {
    const double t = work_[static_cast<std::size_t>(eta.pivot_pos)];
    if (t == 0.0) continue;
    for (int k = eta.start; k < eta.end; ++k) {
      work_[static_cast<std::size_t>(pos[k])] += val[k] * t;
    }
    work_[static_cast<std::size_t>(eta.pivot_pos)] = eta.pivot_val * t;
    if (dense) continue;
    for (int k = eta.start; k < eta.end; ++k) touch(pos[k]);
    touch(eta.pivot_pos);
  }
  x.swap(work_);
  collect_nonzeros(x, dense, nz);
}

void LuBasis::btran(std::vector<double>& y, std::vector<int>* nz) {
  ARROW_CHECK(static_cast<int>(y.size()) == m_, "btran size mismatch");
  // Update etas transposed, reverse order (position space).
  const int* pos = eta_pos_.data();
  const double* val = eta_val_.data();
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    double s = it->pivot_val * y[static_cast<std::size_t>(it->pivot_pos)];
    for (int k = it->start; k < it->end; ++k) {
      s += val[k] * y[static_cast<std::size_t>(pos[k])];
    }
    y[static_cast<std::size_t>(it->pivot_pos)] = s;
  }

  // U^T forward substitution; y is consumed as the accumulator and the
  // step values land in row space. A step whose position holds +0.0 and
  // receives no contribution yields +0.0 / diag = zero_by_row_ and
  // scatters nothing.
  frontier_.clear();
  for (int p = 0; p < m_; ++p) {
    if (!is_positive_zero(y[static_cast<std::size_t>(p)])) {
      frontier_.push_back(step_of_pos_[static_cast<std::size_t>(p)]);
    }
  }
  int reach = static_cast<int>(frontier_.size());
  bool dense = reach * kDenseReach > m_;
  int dense_from = 0;  // the dense sweep's first (lowest) step
  std::copy(zero_by_row_.begin(), zero_by_row_.end(), work_.begin());
  // Solves step k and scatters its value down U row k; returns whether it
  // scattered. Contributions to any one entry of y land in ascending step
  // order, as in the dense sweep.
  const auto solve_step = [&](int k) {
    const auto sk = static_cast<std::size_t>(k);
    const double v = y[static_cast<std::size_t>(pivot_col_[sk])] / diag_[sk];
    work_[static_cast<std::size_t>(pivot_row_[sk])] = v;
    if (v == 0.0) return false;
    for (int e = u_start_[sk]; e < u_start_[sk + 1]; ++e) {
      y[static_cast<std::size_t>(u_pos_[static_cast<std::size_t>(e)])] -=
          u_val_[static_cast<std::size_t>(e)] * v;
    }
    return true;
  };
  if (!dense) {
    // Min-heap of reached steps: a step pops only after every lower step
    // that scatters into it, and the dense sweep can take over above it.
    for (int k : frontier_) reached_[static_cast<std::size_t>(k)] = 1;
    std::make_heap(frontier_.begin(), frontier_.end(), std::greater<>());
    while (!frontier_.empty()) {
      std::pop_heap(frontier_.begin(), frontier_.end(), std::greater<>());
      const int k = frontier_.back();
      frontier_.pop_back();
      reached_[static_cast<std::size_t>(k)] = 0;
      touch(pivot_row_[static_cast<std::size_t>(k)]);
      if (!solve_step(k)) continue;
      for (int e = u_start_[static_cast<std::size_t>(k)];
           e < u_start_[static_cast<std::size_t>(k) + 1]; ++e) {
        const int dep = step_of_pos_[static_cast<std::size_t>(
            u_pos_[static_cast<std::size_t>(e)])];
        if (reached_[static_cast<std::size_t>(dep)]) continue;
        reached_[static_cast<std::size_t>(dep)] = 1;
        frontier_.push_back(dep);
        std::push_heap(frontier_.begin(), frontier_.end(), std::greater<>());
        ++reach;
      }
      if (reach * kDenseReach > m_) {
        for (int j : frontier_) reached_[static_cast<std::size_t>(j)] = 0;
        frontier_.clear();
        dense = true;
        dense_from = k + 1;
      }
    }
  }
  if (dense) {
    for (int k = dense_from; k < m_; ++k) solve_step(k);
  }

  // L^T in reverse elimination order (row space); steps without
  // multipliers change nothing.
  std::vector<double>& z = work_;
  for (auto it = l_steps_.rbegin(); it != l_steps_.rend(); ++it) {
    const auto sk = static_cast<std::size_t>(*it);
    const auto r = static_cast<std::size_t>(pivot_row_[sk]);
    double s = z[r];
    bool changed = false;
    for (int e = l_start_[sk]; e < l_start_[sk + 1]; ++e) {
      const double zi =
          z[static_cast<std::size_t>(l_row_[static_cast<std::size_t>(e)])];
      if (zi != 0.0) {
        s -= l_val_[static_cast<std::size_t>(e)] * zi;
        changed = true;
      }
    }
    if (changed) {
      z[r] = s;
      if (!dense) touch(static_cast<int>(r));
    }
  }
  y.swap(work_);
  collect_nonzeros(y, dense, nz);
}

bool LuBasis::update(int position, const std::vector<double>& w,
                     const std::vector<int>& nz, double pivot_tol) {
  ARROW_CHECK(position >= 0 && position < m_, "update position out of range");
  const double pivot_value = w[static_cast<std::size_t>(position)];
  if (std::abs(pivot_value) < pivot_tol) return false;
  Eta eta;
  eta.pivot_pos = position;
  const double inv = 1.0 / pivot_value;
  eta.pivot_val = inv;
  eta.start = static_cast<int>(eta_pos_.size());
  // Ascending positions, as a dense scan would visit them: the entry order
  // fixes BTRAN's summation order through this eta.
  for (int p : nz) {
    const double v = w[static_cast<std::size_t>(p)];
    if (p != position && std::abs(v) > kDropTol) {
      eta_pos_.push_back(p);
      eta_val_.push_back(-v * inv);
    }
  }
  eta.end = static_cast<int>(eta_pos_.size());
  eta_nnz_ += static_cast<std::size_t>(eta.end - eta.start) + 1;
  etas_.push_back(eta);
  return true;
}

}  // namespace arrow::solver
