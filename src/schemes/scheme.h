// Pluggable restoration-scheme registry (ROADMAP item 3).
//
// Every TE competitor the sweep races — the paper's original five plus the
// related-work entrants — implements one interface: solve() produces the
// installed plan, on_cut() answers a failure at runtime, and capability
// flags tell the callers what the scheme can do (does it consume ARROW's
// offline artifacts? can it weave a localized repair at cut time?).
// sim::run_sweep dispatches through the registry instead of a hard-coded
// if-chain, so adding a competitor is one register_scheme call, not a sweep
// edit. on_cut() is the only code that answers a fiber cut: both control
// loops (run_controller and serve::TickEngine) reach it through
// ctrl::Session::cut. Whether an answer is an IP-layer repair or an optical
// one is read off the answer itself (CutRepair::local / fell_back_global).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "optical/latency.h"
#include "te/arrow.h"
#include "te/ffc.h"
#include "te/input.h"
#include "te/solution.h"
#include "te/teavar.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace arrow::schemes {

// What a scheme can do — consumed by run_sweep (prepare stage + repair-aware
// evaluation) and by the control loops' cut path.
struct Capabilities {
  // Consumes the offline stage (prepare_arrow's RWA + LotteryTickets and the
  // RestorabilityCache). The sweep and ctrl::Session only pay for the
  // offline stage when the scheme sets this.
  bool needs_prepared = false;
  // on_cut() can weave a repaired TE plan around a failure at runtime; the
  // sweep's repair-aware evaluation keys off this.
  bool supports_local_repair = false;
};

// Knobs for the ReWeave-Local repair (see reweave.h for the algorithm).
struct ReWeaveParams {
  // A local repair counts as full recovery when it restores the affected
  // flows' demand to within this many Gbps.
  double full_recovery_tol = 1e-6;
  // When the local LP cannot recover the demand, re-solve globally over the
  // surviving tunnels instead of shipping a partial repair.
  bool allow_global_fallback = true;
  // IP-layer repair latency model: failure detection plus the port-channel
  // re-hash once the new splits are installed (no optical reconfiguration).
  double detection_s = 1.5;
  double rebalance_s = 1.0;
};

// Knobs for the pre-cross-connected trails baseline (see pxt.h).
struct PxtParams {
  int k_paths = 3;      // trail candidates per failed link
  // Cap on trail waves reserved per failed link (0 = up to the lost count).
  int max_trail_waves = 0;
  // Switching onto a pre-cross-connected trail is a transponder-speed
  // operation: detection plus the switchover, no ROADM reconfiguration.
  double detection_s = 1.5;
  double switchover_s = 0.05;
};

// Per-scheme solver knobs, passed to the factory at create() time. This is
// deliberately not sim::SweepParams — schemes must stay usable from the
// daemon and benches without dragging the sweep in.
struct SchemeOptions {
  te::ArrowParams arrow;
  te::TeaVarParams teavar;
  int ffc2_max_double_scenarios = 0;
  ReWeaveParams reweave;
  PxtParams pxt;
  // Optical restoration latency model, used by the on_cut replay of the
  // optically-restoring schemes (ARROW, ARROW-Naive).
  optical::LatencyParams latency;
};

// Everything on_cut() may consult.
struct CutContext {
  const te::TeInput& input;
  // The installed solution the answer starts from.
  const te::TeSolution& plan;
  // Every fiber cut now, the one being answered included.
  const std::vector<topo::FiberId>& cuts;
  // input.scenarios() index of the precomputed scenario this cut matches
  // exactly, or -1 for an unplanned cut.
  int scenario = -1;
  // The fiber just cut (-1 when the sweep scores a whole scenario).
  topo::FiberId fiber = -1;
  // ARROW's offline artifacts and the restorability cache built on them
  // (needs_prepared schemes).
  const te::ArrowPrepared* prepared = nullptr;
  const te::RestorabilityCache* cache = nullptr;
  // The replay stream: forked once per optical plan simulated, so the
  // loop's own draws stay in step. Required by the optically restoring
  // schemes; they answer nothing without it.
  util::Rng* rng = nullptr;
};

// Outcome of on_cut(). `ok == false` means the scheme has no runtime answer
// for this cut (the default for schemes that bake failure-awareness into the
// installed plan and restore nothing at cut time).
struct CutRepair {
  bool ok = false;
  bool planned = false;       // answered from ctx.scenario's precomputed plan
  bool transplanted = false;  // answered from the nearest scenario's plan
  // What kind of answer this is. An IP-layer repair sets one of these two
  // and carries the rewoven plan to install; an optical answer sets neither,
  // leaves `plan` empty — the installed plan stays — and restores under it
  // by its timeline.
  bool local = false;             // localized repair sufficed
  bool fell_back_global = false;  // local repair degraded to a global solve
  te::TeSolution plan;
  // Optical answers: the wave-up events, t_s after the cut; each lights
  // wave_gbps on link. Empty when no surrogate wave survives.
  std::vector<optical::TimelinePoint> timeline;
  double restored_gbps = 0.0;     // capacity the answer brings back
  double latency_s = 0.0;         // time until the repair carries traffic
  double solve_seconds = 0.0;
  long long simplex_iterations = 0;
};

class Scheme {
 public:
  virtual ~Scheme() = default;

  virtual const std::string& name() const = 0;
  virtual Capabilities capabilities() const = 0;

  // Produce the installed plan. `prepared` and `cache` are empty/null unless
  // capabilities().needs_prepared (the sweep only builds them on demand).
  // `pool` may be the one running the caller: a loop called from one of its
  // workers runs inline.
  virtual te::TeSolution solve(const te::TeInput& input,
                               const te::ArrowPrepared& prepared,
                               util::ThreadPool& pool,
                               const te::RestorabilityCache* cache) = 0;

  // Answer a fiber cut: the control loops' only cut path (through
  // ctrl::Session::cut) and the sweep's repair-aware evaluation. Default:
  // no runtime repair.
  virtual CutRepair on_cut(const CutContext& ctx) {
    (void)ctx;
    return {};
  }
};

// Name -> factory registry. The built-in schemes (ARROW, ARROW-Naive,
// FFC-1, FFC-2, TeaVaR, ECMP, ReWeave-Local, PXT) are registered by the
// global() constructor — deliberately not via file-scope static registrars,
// which a static-library link is free to dead-strip.
class Registry {
 public:
  using Factory =
      std::function<std::unique_ptr<Scheme>(const SchemeOptions&)>;

  // The process-wide registry with the built-ins pre-registered.
  static Registry& global();

  // Registers (or replaces) a factory under `name`.
  void add(const std::string& name, Factory factory);

  bool contains(const std::string& name) const;

  // Registered names, in registration order (built-ins first, in the
  // sweep's canonical order).
  std::vector<std::string> names() const;

  // Instantiates `name`; throws std::logic_error listing the registered
  // names when it is unknown (the satellite diagnostic — "unknown scheme"
  // alone sent people grepping the sweep source).
  std::unique_ptr<Scheme> create(const std::string& name,
                                 const SchemeOptions& options = {}) const;

  // Capability flags of `name` without keeping an instance (daemon startup
  // log, cut fast-path dispatch). Throws like create() on unknown names.
  Capabilities capabilities(const std::string& name) const;

  // "unknown scheme 'X' (registered: A, B, ...)" — shared by create() and
  // the sweep's own lookups so every unknown-scheme error reads the same.
  std::string unknown_message(const std::string& name) const;

  // Builds a fresh registry with only the built-ins (used by tests that
  // mutate the registry without poisoning the process-wide one).
  Registry();

 private:
  std::vector<std::pair<std::string, Factory>> entries_;
};

}  // namespace arrow::schemes
