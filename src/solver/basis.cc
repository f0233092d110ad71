#include "solver/basis.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>

#include "solver/lp.h"
#include "util/check.h"

namespace arrow::solver {

namespace {
constexpr double kDropTol = 1e-12;
// Relative threshold for partial pivoting inside the Markowitz search: a
// pivot must be at least this fraction of the column's largest entry.
constexpr double kRelPivot = 0.05;
}  // namespace

bool LuBasis::factorize(const SparseMatrix& a, const std::vector<int>& cols,
                        double pivot_tol) {
  ARROW_CHECK(static_cast<int>(cols.size()) == a.rows, "basis size mismatch");
  return factorize_columns(
      a.rows,
      [&](int p, const auto& add) {
        const int j = cols[static_cast<std::size_t>(p)];
        for (int k = a.col_start[static_cast<std::size_t>(j)];
             k < a.col_start[static_cast<std::size_t>(j) + 1]; ++k) {
          add(a.row_index[static_cast<std::size_t>(k)],
              a.value[static_cast<std::size_t>(k)]);
        }
      },
      pivot_tol);
}

bool LuBasis::factorize(int m, const std::vector<Column>& columns,
                        double pivot_tol) {
  ARROW_CHECK(static_cast<int>(columns.size()) == m, "basis size mismatch");
  return factorize_columns(
      m,
      [&](int p, const auto& add) {
        for (const auto& [r, v] : columns[static_cast<std::size_t>(p)]) add(r, v);
      },
      pivot_tol);
}

template <class Entries>
bool LuBasis::factorize_columns(int m, const Entries& entries,
                                double pivot_tol) {
  const auto sm = static_cast<std::size_t>(m);
  m_ = 0;  // no solves until the factorization succeeds
  pivot_row_.assign(sm, -1);
  pivot_col_.assign(sm, -1);
  diag_.assign(sm, 0.0);
  l_start_.assign(sm + 1, 0);
  l_row_.clear();
  l_val_.clear();
  u_start_.assign(sm + 1, 0);
  u_pos_.clear();
  u_val_.clear();
  etas_.clear();
  eta_pos_.clear();
  eta_val_.clear();
  reader_mask_.clear();
  neg_zero_etas_.clear();
  eta_pending_.clear();
  lu_nnz_ = 0;
  eta_nnz_ = 0;

  // Load the working matrix, then the row lists by counting sort: each in
  // column order, as the columns were given.
  col_nnz_.assign(sm, 0);
  row_nnz_.assign(sm, 0);
  row_active_.assign(sm, 1);
  col_active_.assign(sm, 1);
  clean_.assign(sm, 1);
  w_row_.clear();
  w_val_.clear();
  w_start_.resize(sm);
  w_len_.resize(sm);
  w_cap_.resize(sm);
  for (int j = 0; j < m; ++j) {
    const auto sj = static_cast<std::size_t>(j);
    w_start_[sj] = static_cast<int>(w_row_.size());
    entries(j, [&](int r, double v) {
      w_row_.push_back(r);
      w_val_.push_back(v);
      ++row_nnz_[static_cast<std::size_t>(r)];
      if (std::abs(v) <= kDropTol) clean_[sj] = 0;
    });
    w_len_[sj] = w_cap_[sj] = static_cast<int>(w_row_.size()) - w_start_[sj];
    col_nnz_[sj] = w_len_[sj];
  }
  w_rec_.resize(w_row_.size());
  r_start_.resize(sm);
  r_len_.assign(sm, 0);
  r_cap_.resize(sm);
  row_dropped_.assign(sm, 0);
  int r_size = 0;
  for (std::size_t r = 0; r < sm; ++r) {
    r_start_[r] = r_size;
    r_cap_[r] = row_nnz_[r];
    r_size += row_nnz_[r];
  }
  r_rec_.resize(static_cast<std::size_t>(r_size));
  for (int j = 0; j < m; ++j) {
    const auto sj = static_cast<std::size_t>(j);
    for (int k = w_start_[sj]; k < w_start_[sj] + w_len_[sj]; ++k) {
      const auto r = static_cast<std::size_t>(w_row_[static_cast<std::size_t>(k)]);
      const int i = r_len_[r]++;
      r_rec_[static_cast<std::size_t>(r_start_[r] + i)] = {j, k};
      w_rec_[static_cast<std::size_t>(k)] = i;
    }
  }

  // Pivot-column candidates. The pick is the lowest-index column of
  // smallest max(col_nnz_, 1), so while any column has count <= 1 it is the
  // lowest set bit of single_. Only once no singleton is left does the
  // count of the other columns matter: they sit on a lazy min-heap of
  // (col_nnz_, j) packed into one word, and their count changes wait on
  // dirty_ until then. A heap entry whose column is pivoted, or whose key
  // is out of date, is dropped when it surfaces.
  const auto key = [&](int j) {
    return static_cast<std::uint64_t>(col_nnz_[static_cast<std::size_t>(j)])
               << 32 |
           static_cast<std::uint32_t>(j);
  };
  single_.assign((sm + 63) / 64, 0);
  single_lo_ = 0;
  heap_.clear();
  dirty_.clear();
  is_dirty_.assign(sm, 0);
  for (int j = 0; j < m; ++j) {
    if (col_nnz_[static_cast<std::size_t>(j)] <= 1) {
      single_[static_cast<std::size_t>(j) >> 6] |= std::uint64_t{1} << (j & 63);
    } else {
      heap_.push_back(key(j));
    }
  }
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());

  acc_.resize(sm);
  acc_rec_.resize(sm);
  in_acc_.assign(sm, 0);

  for (int step = 0; step < m; ++step) {
    // --- pivot column: smallest active column count -----------------------
    int c = -1;
    const int words = static_cast<int>(single_.size());
    while (single_lo_ < words &&
           single_[static_cast<std::size_t>(single_lo_)] == 0) {
      ++single_lo_;
    }
    if (single_lo_ < words) {
      auto& word = single_[static_cast<std::size_t>(single_lo_)];
      c = single_lo_ * 64 + std::countr_zero(word);
      word &= word - 1;
    } else {
      for (int j : dirty_) {
        is_dirty_[static_cast<std::size_t>(j)] = 0;
        if (col_active_[static_cast<std::size_t>(j)] &&
            col_nnz_[static_cast<std::size_t>(j)] >= 2) {
          heap_.push_back(key(j));
          std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
        }
      }
      dirty_.clear();
      while (c < 0 && !heap_.empty()) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
        const std::uint64_t top = heap_.back();
        heap_.pop_back();
        const int j = static_cast<int>(top & 0xffffffffu);
        if (col_active_[static_cast<std::size_t>(j)] && top == key(j)) c = j;
      }
    }
    if (c < 0) return false;

    // Gather active entries of column c.
    live_.clear();
    double colmax = 0.0;
    const int c_begin = w_start_[static_cast<std::size_t>(c)];
    const int c_end = c_begin + w_len_[static_cast<std::size_t>(c)];
    for (int k = c_begin; k < c_end; ++k) {
      const int ri = w_row_[static_cast<std::size_t>(k)];
      if (row_active_[static_cast<std::size_t>(ri)]) {
        const double v = w_val_[static_cast<std::size_t>(k)];
        live_.emplace_back(ri, v);
        colmax = std::max(colmax, std::abs(v));
      }
    }
    if (colmax < pivot_tol) return false;  // singular

    // --- pivot row: smallest row count subject to threshold pivoting ------
    const double threshold = std::max(pivot_tol, kRelPivot * colmax);
    int r = -1;
    int best_row_nnz = m + 1;
    double d = 0.0;
    for (const auto& [ri, v] : live_) {
      if (std::abs(v) < threshold) continue;
      if (row_nnz_[static_cast<std::size_t>(ri)] < best_row_nnz) {
        best_row_nnz = row_nnz_[static_cast<std::size_t>(ri)];
        r = ri;
        d = v;
      }
    }
    ARROW_CHECK(r >= 0, "threshold pivoting found no candidate");

    pivot_row_[static_cast<std::size_t>(step)] = r;
    pivot_col_[static_cast<std::size_t>(step)] = c;
    diag_[static_cast<std::size_t>(step)] = d;

    const std::size_t l_begin = l_row_.size();
    for (const auto& [ri, v] : live_) {
      if (ri != r && std::abs(v) > kDropTol) {
        l_row_.push_back(ri);
        l_val_.push_back(v / d);
      }
    }
    const std::size_t l_end = l_row_.size();
    l_start_[static_cast<std::size_t>(step) + 1] = static_cast<int>(l_end);
    lu_nnz_ += l_end - l_begin + 1;

    // Deactivate pivot row/column before the updates so rebuilds drop them.
    row_active_[static_cast<std::size_t>(r)] = 0;
    col_active_[static_cast<std::size_t>(c)] = 0;
    for (const auto& [ri, v] : live_) {
      (void)v;
      if (row_active_[static_cast<std::size_t>(ri)]) {
        --row_nnz_[static_cast<std::size_t>(ri)];
      }
    }

    // --- eliminate: update every active column with an entry in row r -----
    // Row r is inactive, so nothing below adds to its list; fill-in may move
    // the record pool, so the list is read by index.
    const std::size_t u_begin = u_pos_.size();
    const int r_begin = r_start_[static_cast<std::size_t>(r)];
    const int r_end = r_begin + r_len_[static_cast<std::size_t>(r)];
    for (int i = r_begin; i < r_end; ++i) {
      const RowRec rec = r_rec_[static_cast<std::size_t>(i)];
      const int cj = rec.col;
      if (!col_active_[static_cast<std::size_t>(cj)] || rec.at < 0) continue;
      const double u = w_val_[static_cast<std::size_t>(rec.at)];
      if (std::abs(u) <= kDropTol) continue;
      u_pos_.push_back(cj);
      u_val_.push_back(u);
      const int old_nnz = col_nnz_[static_cast<std::size_t>(cj)];
      if (l_begin == l_end && clean_[static_cast<std::size_t>(cj)]) {
        // No multipliers: the update only drops row r, which a rebuild does
        // in O(|col|), making a long column quadratic over its pivots. The
        // entry stays where it is; every reader skips inactive rows.
        --col_nnz_[static_cast<std::size_t>(cj)];
      } else {
        rebuild_column(cj, l_begin, l_end, u);
      }
      if (col_nnz_[static_cast<std::size_t>(cj)] != old_nnz) note_count(cj);
    }
    u_start_[static_cast<std::size_t>(step) + 1] =
        static_cast<int>(u_pos_.size());
    lu_nnz_ += u_pos_.size() - u_begin;
  }
  m_ = m;
  index_factors();
  return true;
}

// col := col - u * lcol through a dense accumulator: the column's active
// entries in their order, then fill-in in L order, dropping results at or
// below kDropTol. Every kept entry's row record is pointed at its new
// index; a dropped entry's record is marked dropped (at == -1) and stays in
// its row's list, so that a later fill in the same row takes the column's
// place in that list back.
void LuBasis::rebuild_column(int j, std::size_t l_begin, std::size_t l_end,
                             double u) {
  const auto sj = static_cast<std::size_t>(j);
  acc_rows_.clear();
  for (int k = w_start_[sj]; k < w_start_[sj] + w_len_[sj]; ++k) {
    const auto ri = static_cast<std::size_t>(w_row_[static_cast<std::size_t>(k)]);
    if (!row_active_[ri]) continue;
    acc_[ri] = w_val_[static_cast<std::size_t>(k)];
    acc_rec_[ri] = w_rec_[static_cast<std::size_t>(k)];
    in_acc_[ri] = 1;
    acc_rows_.push_back(static_cast<int>(ri));
  }
  for (std::size_t e = l_begin; e < l_end; ++e) {
    const int ri = l_row_[e];
    const auto sri = static_cast<std::size_t>(ri);
    if (!row_active_[sri]) continue;
    if (!in_acc_[sri]) {  // fill-in
      acc_[sri] = 0.0;
      acc_rec_[sri] = attach_record(ri, j);
      in_acc_[sri] = 1;
      acc_rows_.push_back(ri);
      ++row_nnz_[sri];
    }
    acc_[sri] -= l_val_[e] * u;
  }
  const auto need = static_cast<int>(acc_rows_.size());
  if (need > w_cap_[sj]) {
    w_start_[sj] = static_cast<int>(w_row_.size());
    w_cap_[sj] = 2 * need;
    const std::size_t size = w_row_.size() + static_cast<std::size_t>(w_cap_[sj]);
    w_row_.resize(size);
    w_val_.resize(size);
    w_rec_.resize(size);
  }
  int at = w_start_[sj];
  for (int ri : acc_rows_) {
    const auto sri = static_cast<std::size_t>(ri);
    const double v = acc_[sri];
    const int rec = acc_rec_[sri];
    in_acc_[sri] = 0;
    if (std::abs(v) > kDropTol) {
      w_row_[static_cast<std::size_t>(at)] = ri;
      w_val_[static_cast<std::size_t>(at)] = v;
      w_rec_[static_cast<std::size_t>(at)] = rec;
      r_rec_[static_cast<std::size_t>(r_start_[sri] + rec)].at = at++;
    } else {
      --row_nnz_[sri];  // cancellation
      r_rec_[static_cast<std::size_t>(r_start_[sri] + rec)].at = -1;
      ++row_dropped_[sri];
    }
  }
  w_len_[sj] = at - w_start_[sj];
  col_nnz_[sj] = w_len_[sj];
  clean_[sj] = 1;
}

int LuBasis::attach_record(int r, int j) {
  const auto sr = static_cast<std::size_t>(r);
  const auto begin = static_cast<std::size_t>(r_start_[sr]);
  if (row_dropped_[sr] > 0) {
    for (int i = 0; i < r_len_[sr]; ++i) {
      const RowRec& rec = r_rec_[begin + static_cast<std::size_t>(i)];
      if (rec.col == j && rec.at < 0) {
        --row_dropped_[sr];
        return i;
      }
    }
  }
  if (r_len_[sr] == r_cap_[sr]) {  // full: move the list to the pool's end
    r_start_[sr] = static_cast<int>(r_rec_.size());
    r_cap_[sr] = 2 * r_len_[sr] + 4;
    r_rec_.resize(r_rec_.size() + static_cast<std::size_t>(r_cap_[sr]));
    std::copy_n(r_rec_.begin() + static_cast<std::ptrdiff_t>(begin), r_len_[sr],
                r_rec_.begin() + r_start_[sr]);
  }
  r_rec_[static_cast<std::size_t>(r_start_[sr] + r_len_[sr])] = {j, -1};
  return r_len_[sr]++;
}

// A column of count <= 1 is picked before any pivot column with
// multipliers, the only kind that adds fill, so a count never rises once
// the column is in single_: it leaves the bitmap only as a pivot.
void LuBasis::note_count(int j) {
  const auto sj = static_cast<std::size_t>(j);
  if (col_nnz_[sj] <= 1) {
    single_[sj >> 6] |= std::uint64_t{1} << (j & 63);
    single_lo_ = std::min(single_lo_, j >> 6);
  } else if (!is_dirty_[sj]) {
    is_dirty_[sj] = 1;
    dirty_.push_back(j);
  }
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
  // ucol_start_[p] serves as position p's fill pointer and ends at p + 1's
  // start; shifting the array up one slot restores the starts.
  for (int k = 0; k < m_; ++k) {
    for (int e = u_start_[static_cast<std::size_t>(k)];
         e < u_start_[static_cast<std::size_t>(k) + 1]; ++e) {
      ucol_step_[static_cast<std::size_t>(
          ucol_start_[static_cast<std::size_t>(u_pos_[static_cast<std::size_t>(e)])]++)] = k;
    }
  }
  std::copy_backward(ucol_start_.begin(), ucol_start_.end() - 1,
                     ucol_start_.end());
  ucol_start_[0] = 0;
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

void LuBasis::ftran(std::vector<double>& x, std::vector<int>* nz) {
  solve_ftran(x, nullptr, nz);
}

void LuBasis::ftran(std::vector<double>& x, std::vector<int>& seeds,
                    std::vector<int>* nz) {
  solve_ftran(x, &seeds, nz);
}

void LuBasis::btran(std::vector<double>& y, std::vector<int>* nz) {
  solve_btran(y, nullptr, nz);
}

void LuBasis::btran(std::vector<double>& y, std::vector<int>& seeds,
                    std::vector<int>* nz) {
  solve_btran(y, &seeds, nz);
}

bool LuBasis::reach_step(int k) {
  if (reached_[static_cast<std::size_t>(k)]) return false;
  reached_[static_cast<std::size_t>(k)] = 1;
  frontier_.push_back(k);
  return static_cast<int>(frontier_.size()) * kDenseReach > m_;
}

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
void LuBasis::solve_ftran(std::vector<double>& x, std::vector<int>* seeds,
                          std::vector<int>* nz) {
  ARROW_CHECK(static_cast<int>(x.size()) == m_, "ftran size mismatch");
  // L pass in elimination order (row space); steps without multipliers
  // change nothing. A row it writes joins the seeds when it leaves +0.0;
  // a row that holds anything else is listed already, by the caller or
  // when it left +0.0. Without a seed list every row is a seed.
  for (int k : l_steps_) {
    const double v =
        x[static_cast<std::size_t>(pivot_row_[static_cast<std::size_t>(k)])];
    if (v == 0.0) continue;
    for (int e = l_start_[static_cast<std::size_t>(k)];
         e < l_start_[static_cast<std::size_t>(k) + 1]; ++e) {
      const int r = l_row_[static_cast<std::size_t>(e)];
      double& xr = x[static_cast<std::size_t>(r)];
      if (seeds != nullptr && is_positive_zero(xr)) seeds->push_back(r);
      xr -= l_val_[static_cast<std::size_t>(e)] * v;
    }
  }

  // U back substitution into basis-position space. A step whose pivot row
  // holds +0.0 and whose U row reads only zeros computes (+0.0 - u * ±0) /
  // diag = zero_by_pos_; every other step is seeded here or reached from
  // one that is. The seeds' rows that hold other than +0.0 give the
  // frontier, each step once; the heap pops the same steps in the same
  // order whatever order they arrive in. A frontier past m/8 steps goes
  // dense at once, so the rest of the seeds are not needed.
  frontier_.clear();
  bool dense = false;
  const auto seed_row = [&](int i) {
    return !is_positive_zero(x[static_cast<std::size_t>(i)]) &&
           reach_step(step_of_row_[static_cast<std::size_t>(i)]);
  };
  if (seeds != nullptr) {
    for (int i : *seeds) {
      if ((dense = seed_row(i))) break;
    }
  } else {
    for (int i = 0; i < m_ && !dense; ++i) dense = seed_row(i);
  }
  int reach = static_cast<int>(frontier_.size());
  if (dense) {
    for (int k : frontier_) reached_[static_cast<std::size_t>(k)] = 0;
  }
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

void LuBasis::solve_btran(std::vector<double>& y, std::vector<int>* seeds,
                          std::vector<int>* nz) {
  ARROW_CHECK(static_cast<int>(y.size()) == m_, "btran size mismatch");
  // Update etas transposed, newest first (position space). An eta whose
  // inputs all hold +0.0 computes +0.0 into its pivot position, which
  // holds +0.0 already, unless it is in neg_zero_etas_. So only those and
  // the readers of a position that holds other than +0.0 run: the readers
  // of the seeds, and the older readers of a position an eta writes. The
  // pending bitmap yields them newest first; a written position joins the
  // seeds as in the L pass of ftran(). Without a seed list every position
  // is a seed.
  if (!etas_.empty()) {
    const int* pos = eta_pos_.data();
    const double* val = eta_val_.data();
    const auto m = static_cast<std::size_t>(m_);
    // Marks the readers of position p with an index below `below`.
    const auto queue = [&](int p, int below) {
      const int top = below >> 6;
      for (int word = 0; word < top; ++word) {
        eta_pending_[static_cast<std::size_t>(word)] |=
            reader_mask_[static_cast<std::size_t>(word) * m +
                         static_cast<std::size_t>(p)];
      }
      if ((below & 63) != 0) {
        eta_pending_[static_cast<std::size_t>(top)] |=
            reader_mask_[static_cast<std::size_t>(top) * m +
                         static_cast<std::size_t>(p)] &
            ((std::uint64_t{1} << (below & 63)) - 1);
      }
    };
    std::copy(neg_zero_etas_.begin(), neg_zero_etas_.end(),
              eta_pending_.begin());
    const int newest = static_cast<int>(etas_.size());
    const auto queue_seed = [&](int p) {
      if (!is_positive_zero(y[static_cast<std::size_t>(p)])) queue(p, newest);
    };
    if (seeds != nullptr) {
      for (int p : *seeds) queue_seed(p);
    } else {
      for (int p = 0; p < m_; ++p) queue_seed(p);
    }
    for (auto word = static_cast<int>(eta_pending_.size()) - 1; word >= 0;
         --word) {
      std::uint64_t& bits = eta_pending_[static_cast<std::size_t>(word)];
      while (bits != 0) {
        const int bit = 63 - std::countl_zero(bits);
        bits &= ~(std::uint64_t{1} << bit);
        const int e = word * 64 + bit;
        const Eta& eta = etas_[static_cast<std::size_t>(e)];
        double s = eta.pivot_val * y[static_cast<std::size_t>(eta.pivot_pos)];
        for (int k = eta.start; k < eta.end; ++k) {
          s += val[k] * y[static_cast<std::size_t>(pos[k])];
        }
        double& target = y[static_cast<std::size_t>(eta.pivot_pos)];
        if (seeds != nullptr && is_positive_zero(target)) {
          seeds->push_back(eta.pivot_pos);
        }
        target = s;
        if (!is_positive_zero(s)) queue(eta.pivot_pos, e);
      }
    }
  }

  // U^T forward substitution; y is consumed as the accumulator and the
  // step values land in row space. A step whose position holds +0.0 and
  // receives no contribution yields +0.0 / diag = zero_by_row_ and
  // scatters nothing. The frontier comes from the seeds as in ftran().
  frontier_.clear();
  bool dense = false;
  const auto seed_pos = [&](int p) {
    return !is_positive_zero(y[static_cast<std::size_t>(p)]) &&
           reach_step(step_of_pos_[static_cast<std::size_t>(p)]);
  };
  if (seeds != nullptr) {
    for (int p : *seeds) {
      if ((dense = seed_pos(p))) break;
    }
  } else {
    for (int p = 0; p < m_ && !dense; ++p) dense = seed_pos(p);
  }
  int reach = static_cast<int>(frontier_.size());
  if (dense) {
    for (int k : frontier_) reached_[static_cast<std::size_t>(k)] = 0;
  }
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
  const int index = static_cast<int>(etas_.size());
  const auto m = static_cast<std::size_t>(m_);
  const std::size_t block = static_cast<std::size_t>(index >> 6) * m;
  if (reader_mask_.size() < block + m) reader_mask_.resize(block + m, 0);
  const std::uint64_t bit = std::uint64_t{1} << (index & 63);
  Eta eta;
  eta.pivot_pos = position;
  const double inv = 1.0 / pivot_value;
  eta.pivot_val = inv;
  eta.start = static_cast<int>(eta_pos_.size());
  reader_mask_[block + static_cast<std::size_t>(position)] |= bit;
  // What transposed BTRAN computes here from all +0.0 inputs, with its
  // operations in its order.
  double from_zeros = inv * 0.0;
  // Ascending positions, as a dense scan would visit them: the entry order
  // fixes BTRAN's summation order through this eta.
  for (int p : nz) {
    const double v = w[static_cast<std::size_t>(p)];
    if (p != position && std::abs(v) > kDropTol) {
      eta_pos_.push_back(p);
      eta_val_.push_back(-v * inv);
      from_zeros += eta_val_.back() * 0.0;
      reader_mask_[block + static_cast<std::size_t>(p)] |= bit;
    }
  }
  eta.end = static_cast<int>(eta_pos_.size());
  eta_nnz_ += static_cast<std::size_t>(eta.end - eta.start) + 1;
  etas_.push_back(eta);
  const auto words = (etas_.size() + 63) / 64;
  neg_zero_etas_.resize(words, 0);
  eta_pending_.resize(words, 0);
  if (!is_positive_zero(from_zeros)) {
    neg_zero_etas_[static_cast<std::size_t>(index) >> 6] |= bit;
  }
  return true;
}

}  // namespace arrow::solver
