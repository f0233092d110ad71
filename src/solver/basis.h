// Simplex basis representation: Markowitz-ordered sparse LU factorization
// with product-form eta updates between refactorizations.
//
// B^{-1} is applied as   (update etas) ∘ U^{-1} ∘ L^{-1}   where L and U come
// from a right-looking sparse Gaussian elimination whose pivots are chosen to
// keep fill low (smallest active column, then smallest row count subject to
// threshold partial pivoting). Update etas act in basis-position space.
//
// The pivot column is the lowest-index column of smallest max(count, 1).
// Columns of count <= 1 sit in a bitmap and the pick is its lowest set bit;
// count changes of the other columns are deferred and reach a lazy
// min-heap keyed (count, index) only when no singleton is left. Each record
// of a row's column list holds the index of its entry in the working
// matrix, so the pivot row's entry in a column is found in O(1), and an
// update that only removes the pivot row from a column (a pivot column with
// no multipliers, the common case in slack-heavy bases) leaves the entry
// stale in O(1) instead of rebuilding the column. A refactorization thus
// costs O(nnz + m^2 / 64) for the loads, updates and bitmap, plus O(log m)
// per count change the heap sees, plus the rebuilds' and the elimination's
// own flops. The working matrix and the row lists are pools and every work
// array is a member, so a factorization of a size seen before allocates
// nothing.
//
// L columns and U rows live in flat per-step arrays, with a column index of
// U and the step-of-row / step-of-position maps built alongside. FTRAN and
// BTRAN are hypersparse: the L sweeps visit only steps that have
// multipliers, and the U passes visit only the elimination steps reachable
// from the input's nonzeros, so a per-pivot solve (an entering column, a
// unit vector e_p) costs time in the nonzeros it touches rather than in m.
// A position no step reaches gets exactly what a dense sweep writes there:
// +0.0 / pivot, which is -0.0 under a negative pivot. Once a solve's reach
// passes m/8 steps, the rest of its U pass runs as a dense sweep inside the
// same routine, with the same bits.
//
// The caller names the input's nonzeros (the seeds), so no solve scans all
// m entries for them; a caller without such a list has the solve scan for
// it. Each solve adds the entries it turns from +0.0 into something else
// (FTRAN's L pass, BTRAN's etas) and starts its U pass from the seeds that
// hold other than +0.0. The max- or min-heap pops the same steps in the
// same order from any starting permutation, and the reach that trips the
// dense sweep counts the same steps, so the seeds change no bit.
//
// BTRAN's transposed etas run newest first and read positions; an eta
// whose inputs all hold +0.0 writes +0.0 over the +0.0 at its pivot
// position, unless its pivot value and every off-pivot value are negative,
// when it writes -0.0. update() therefore records each position's readers
// (a bitmap of the etas that read it) and flags the etas that write -0.0
// from +0.0 inputs. BTRAN runs only the flagged etas and the readers
// of positions holding other than +0.0, found from the seeds and from the
// positions the etas it runs write, so its eta pass costs time in the etas
// its input reaches rather than in the whole eta file.
//
// The pivot order and the floating-point operation order are a contract:
// they fix L, U and every FTRAN/BTRAN bit, hence every simplex pivot and
// every pinned RunReport downstream. A change here must keep them
// (tests/basis_test.cc pins them; bench_simplex pins corpus pivot counts)
// or explain every pivot it moves.
//
// Thread safety: ftran() and btran() reuse work buffers and reach marks
// held in the object, so they are not const and not reentrant. One LuBasis
// serves one thread at a time; concurrent solves need their own objects.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace arrow::solver {

struct SparseMatrix;  // solver/lp.h

class LuBasis {
 public:
  // A sparse basis column: (row, value) pairs.
  using Column = std::vector<std::pair<int, double>>;

  // Factorizes the basis whose position p holds column cols[p] of `a`
  // (cols.size() == a.rows). Returns false if the matrix is numerically
  // singular. The entries are copied into the object's own working matrix.
  bool factorize(const SparseMatrix& a, const std::vector<int>& cols,
                 double pivot_tol);
  // The same for m explicit columns.
  bool factorize(int m, const std::vector<Column>& columns, double pivot_tol);

  // x := B^{-1} b. Input in row space; output in basis-position space.
  // Every entry whose bits are not +0.0 (so -0.0 too) counts as a nonzero
  // of b, and `seeds` must list each such row at least once; it may also
  // list rows that hold +0.0, in any order, with repeats. The solve appends
  // to it, so the caller's list is spent. If `nz` is given it receives the
  // positions p with x[p] != 0, in ascending order.
  void ftran(std::vector<double>& x, std::vector<int>& seeds,
             std::vector<int>* nz = nullptr);
  // The same for a caller with no seed list: scans x for one.
  void ftran(std::vector<double>& x, std::vector<int>* nz = nullptr);

  // y := B^{-T} c. Input in basis-position space; output in row space.
  // `seeds` lists the positions of c as for ftran(); `nz` reports rows.
  void btran(std::vector<double>& y, std::vector<int>& seeds,
             std::vector<int>* nz = nullptr);
  void btran(std::vector<double>& y, std::vector<int>* nz = nullptr);

  // Replaces the basis column at `position`; `w` must be ftran() of the
  // entering column and `nz` the ascending nonzero positions ftran()
  // reported for it. Returns false if |w[position]| is below pivot_tol.
  bool update(int position, const std::vector<double>& w,
              const std::vector<int>& nz, double pivot_tol);

  int updates_since_factorize() const { return static_cast<int>(etas_.size()); }
  // Nonzeros in L + U + update etas: the per-ftran/btran work estimate.
  std::size_t work_nnz() const { return lu_nnz_ + eta_nnz_; }
  std::size_t factor_nnz() const { return lu_nnz_; }

 private:
  // Update etas in structure-of-arrays form: the pivot (position, 1/value)
  // lives in the Eta record, the off-pivot entries in the shared contiguous
  // eta_pos_/eta_val_ pools. The apply loops are then branch-free axpy /
  // sparse-dot kernels over plain arrays instead of walking per-eta
  // pair-vectors with an in-loop pivot test.
  struct Eta {
    int pivot_pos = -1;
    double pivot_val = 0.0;  // 1 / entering pivot value
    int start = 0;           // [start, end) into eta_pos_ / eta_val_
    int end = 0;
  };

  // A row list record: column `col` has its entry for the row at working
  // matrix index `at`, or none (at == -1) since a rebuild dropped it.
  struct RowRec {
    int col;
    int at;
  };

  // The shared body of the factorize() overloads: entries(p, add) calls
  // add(row, value) for each entry of basis column p, in order.
  template <class Entries>
  bool factorize_columns(int m, const Entries& entries, double pivot_tol);
  // Rebuilds active column j as j - u * (L column [l_begin, l_end)).
  void rebuild_column(int j, std::size_t l_begin, std::size_t l_end, double u);
  // The index in row r's list of column j's record: a dropped one if the
  // list has it, else a new one.
  int attach_record(int r, int j);
  // Files column j under its new count: in the singleton bitmap, or on
  // the dirty list for the heap.
  void note_count(int j);
  // Builds the solve-side indexes once all m steps are eliminated.
  void index_factors();
  // The bodies of the ftran()/btran() overloads. Without a seed list
  // (seeds == nullptr) every index of the input is a seed, read straight
  // from the input wherever a list would be walked.
  void solve_ftran(std::vector<double>& x, std::vector<int>* seeds,
                   std::vector<int>* nz);
  void solve_btran(std::vector<double>& y, std::vector<int>* seeds,
                   std::vector<int>* nz);
  // Adds step k to the U pass's frontier unless it is reached already;
  // true once the frontier passes the dense-sweep threshold.
  bool reach_step(int k);
  // Marks output index i as written by a sparse solve.
  void touch(int i);
  // Writes the ascending indexes i with v[i] != 0 to *nz (if given), from
  // touched_ after a sparse solve or from all of v after a dense one, and
  // clears touched_.
  void collect_nonzeros(const std::vector<double>& v, bool dense,
                        std::vector<int>* nz);

  int m_ = 0;
  // Elimination step k: pivot row/col, diagonal.
  std::vector<int> pivot_row_;   // row space index per step
  std::vector<int> pivot_col_;   // basis-position index per step
  std::vector<double> diag_;
  // L column of step k: [l_start_[k], l_start_[k + 1]) of (l_row_, l_val_).
  std::vector<int> l_start_;
  std::vector<int> l_row_;
  std::vector<double> l_val_;
  std::vector<int> l_steps_;     // steps with a nonempty L column, ascending
  // U row of step k: [u_start_[k], u_start_[k + 1]) of (u_pos_, u_val_).
  std::vector<int> u_start_;
  std::vector<int> u_pos_;
  std::vector<double> u_val_;
  // Column index of U: the steps whose U row holds position p, ascending,
  // are ucol_step_[ucol_start_[p] .. ucol_start_[p + 1]).
  std::vector<int> ucol_start_;
  std::vector<int> ucol_step_;
  std::vector<int> step_of_row_;
  std::vector<int> step_of_pos_;
  // What a dense U sweep writes where no step reaches: +0.0 / diag, laid
  // out by position (FTRAN output) and by row (BTRAN output).
  std::vector<double> zero_by_pos_;
  std::vector<double> zero_by_row_;

  std::vector<Eta> etas_;
  std::vector<int> eta_pos_;     // off-pivot positions, all etas
  std::vector<double> eta_val_;  // matching values
  // The etas that read each position, pivot or off-pivot, as bitmaps over
  // eta indexes: bit e % 64 of reader_mask_[(e / 64) * m + p] is set when
  // eta e reads position p. One block of m words per 64 etas.
  std::vector<std::uint64_t> reader_mask_;
  // Bitmap of the etas whose transposed form writes other than +0.0 when
  // every input is +0.0 (-0.0: pivot value and every off-pivot value
  // negative). Readers and flags are reset by factorize().
  std::vector<std::uint64_t> neg_zero_etas_;
  std::size_t lu_nnz_ = 0;
  std::size_t eta_nnz_ = 0;

  // Solve work state, reused across calls (hence non-const solves).
  std::vector<double> work_;     // the output being built
  std::vector<char> reached_;    // per step; all zero between calls
  std::vector<int> frontier_;    // heap of reached, unprocessed steps
  std::vector<std::uint64_t> touched_;  // bitmap of output indexes a
                                        // sparse solve wrote
  std::vector<std::uint64_t> eta_pending_;  // BTRAN's etas left to run;
                                            // all zero between calls
  // factorize()'s state, kept across calls for its capacity. The working
  // matrix is column-wise in one pool: column j's entries are
  // (w_row_, w_val_)[w_start_[j], w_start_[j] + w_len_[j]), with room for
  // w_cap_[j]; entries of rows already pivoted on may linger there. w_rec_
  // holds each entry's index in its row's list. Row r's list is
  // r_rec_[r_start_[r], r_start_[r] + r_len_[r]), with room for r_cap_[r].
  // A column or list that outgrows its room moves to the end of its pool.
  std::vector<int> w_row_;
  std::vector<double> w_val_;
  std::vector<int> w_rec_;
  std::vector<int> w_start_;
  std::vector<int> w_len_;
  std::vector<int> w_cap_;
  std::vector<RowRec> r_rec_;
  std::vector<int> r_start_;
  std::vector<int> r_len_;
  std::vector<int> r_cap_;
  std::vector<int> row_dropped_;  // records with at == -1, per row
  std::vector<int> col_nnz_;
  std::vector<int> row_nnz_;
  std::vector<char> row_active_;
  std::vector<char> col_active_;
  // clean_[j]: every active-row entry of column j is above the drop
  // tolerance and col_nnz_[j] counts exactly those.
  std::vector<char> clean_;
  std::vector<std::uint64_t> single_;  // active columns of count <= 1
  int single_lo_ = 0;                  // no set bit below this word
  std::vector<std::uint64_t> heap_;    // (count, column), count >= 2
  std::vector<int> dirty_;             // count changed since the last flush
  std::vector<char> is_dirty_;
  std::vector<double> acc_;  // a rebuild's dense accumulator, by row
  std::vector<int> acc_rec_;
  std::vector<char> in_acc_;
  std::vector<int> acc_rows_;
  Column live_;  // active entries of the pivot column
};

}  // namespace arrow::solver
