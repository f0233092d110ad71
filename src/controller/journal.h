// Crash-consistent controller state journal.
//
// A controller crash today loses the last-good TE plan: the restarted
// process starts its ladder history empty and the first faulted period falls
// all the way to cold ECMP. The StateJournal write-ahead-logs the small
// durable core of controller state — the last-good plan (splitting ratios
// projectable onto any demand matrix, see carry_forward) plus an in-flight
// run marker — in the checksummed file layout it shares with the BasisStore
// (util/fs.h, docs/file-formats.md), written by temp file + rename, so a
// survivor recovers straight into the carry-forward rung.
//
// What is journaled and why:
//   * in_flight marker: set by begin_run, cleared by end_run. A journal that
//     still has it set was written by a run that died mid-flight — the
//     recovery counterfactual the chaos drills assert on.
//   * topo/scenario structure hashes: a recovered plan is only trusted when
//     the restarted controller is driving the same network (same hashes);
//     anything else degrades to a cold start, never to a wrong plan.
//   * the plan itself: scheme label, per-flow admitted demand, per-tunnel
//     allocations. Winner indices and restoration state are deliberately NOT
//     journaled — they index into a scenario set the dead process sampled,
//     which the survivor cannot validate.
//
// Corruption policy (shared with the BasisStore, docs/file-formats.md):
// missing file, truncation, bit rot, torn write, a lying count or a future
// format version all load as the empty state — a cold start, never an
// error and never garbage state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace arrow::ctrl {

// The durable core of a TE plan: enough to serve traffic via carry-forward.
struct JournalPlan {
  std::string scheme;                     // label of the producing scheme
  std::vector<double> admitted;           // per-flow admitted Gbps
  std::vector<std::vector<double>> alloc; // per-flow per-tunnel Gbps
};

struct JournalState {
  bool in_flight = false;   // a run began and has not ended
  bool has_plan = false;
  std::string run_id;       // obs run id of the writer
  std::uint64_t topo_hash = 0;
  std::uint64_t scenario_hash = 0;
  JournalPlan plan;
};

class StateJournal {
 public:
  explicit StateJournal(std::string path) : path_(std::move(path)) {}

  // Reads the journal file. Any validation failure yields the empty state
  // (and leaves the file untouched for post-mortems).
  JournalState load() const;

  // Each mutator rewrites the whole journal atomically and returns whether
  // the write landed; on failure the previous on-disk state is preserved and
  // the error counters bump. State accumulates across calls: begin_run keeps
  // the recovered/recorded plan, record_plan keeps the run marker.
  bool begin_run(const std::string& run_id, std::uint64_t topo_hash,
                 std::uint64_t scenario_hash);
  bool record_plan(const JournalPlan& plan);
  bool end_run();

  // Seeds the in-memory image (e.g. with a loaded state) without writing.
  void reset(JournalState state) { state_ = std::move(state); }
  const JournalState& state() const { return state_; }
  const std::string& path() const { return path_; }

  int writes() const { return writes_; }
  int write_errors() const { return write_errors_; }

  // Canonical journal file inside a state directory.
  static std::string file_in(const std::string& dir);

 private:
  bool flush();

  std::string path_;
  JournalState state_;
  int writes_ = 0;
  int write_errors_ = 0;
};

}  // namespace arrow::ctrl
