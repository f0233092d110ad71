#include "sim/sweep.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "solver/lp.h"
#include "util/check.h"

namespace arrow::sim {

namespace {

schemes::SchemeOptions scheme_options(const SweepParams& params) {
  schemes::SchemeOptions options;
  options.arrow = params.arrow;
  options.teavar = params.teavar;
  options.ffc2_max_double_scenarios = params.ffc2_max_double_scenarios;
  options.reweave = params.reweave;
  options.pxt = params.pxt;
  return options;
}

}  // namespace

Evaluation evaluate_with_repairs(const te::TeInput& input,
                                 const te::TeSolution& sol,
                                 schemes::Scheme& scheme, RepairStats* stats) {
  Evaluation eval;
  eval.healthy_satisfaction = scenario_satisfaction(input, sol, -1);
  double failure_mass = 0.0;
  double weighted = 0.0;
  eval.per_scenario.reserve(static_cast<std::size_t>(input.num_scenarios()));
  for (int q = 0; q < input.num_scenarios(); ++q) {
    schemes::CutContext ctx{input, q, sol};
    const schemes::CutRepair repair = scheme.on_cut(ctx);
    double sat = 0.0;
    if (repair.ok) {
      sat = scenario_satisfaction(input, repair.plan, q);
      ++stats->cuts;
      if (repair.local) ++stats->local;
      if (repair.fell_back_global) ++stats->fallbacks;
      stats->iterations += repair.simplex_iterations;
      stats->solve_seconds += repair.solve_seconds;
      stats->latency_s += repair.latency_s;
    } else {
      sat = scenario_satisfaction(input, sol, q);
    }
    const double p = input.scenarios()[static_cast<std::size_t>(q)].probability;
    eval.per_scenario.push_back(sat);
    failure_mass += p;
    weighted += p * sat;
  }
  const double healthy_mass = std::max(0.0, 1.0 - failure_mass);
  eval.availability = healthy_mass * eval.healthy_satisfaction + weighted;
  const double total_demand = input.total_demand();
  eval.throughput =
      total_demand > 0.0 ? sol.total_admitted() / total_demand : 1.0;
  return eval;
}

long long SweepResult::total_solve_failures() const {
  long long n = 0;
  for (const auto& entry : solve_failures) {
    for (int c : entry.second) n += c;
  }
  return n;
}

double SweepResult::max_scale_at(const std::string& scheme,
                                 double target) const {
  const auto it = availability.find(scheme);
  if (it == availability.end()) {
    std::string msg = schemes::Registry::global().unknown_message(scheme);
    msg += "; swept: ";
    if (availability.empty()) {
      msg += "(none)";
    } else {
      bool first = true;
      for (const auto& entry : availability) {
        if (!first) msg += ", ";
        msg += entry.first;
        first = false;
      }
    }
    throw std::logic_error(msg);
  }
  const auto& avail = it->second;
  if (avail.empty() || avail[0] < target) return 0.0;
  for (std::size_t i = 1; i < scales.size(); ++i) {
    if (avail[i] < target) {
      const double frac = (avail[i - 1] - target) / (avail[i - 1] - avail[i]);
      return scales[i - 1] + frac * (scales[i] - scales[i - 1]);
    }
  }
  return scales.back();
}

SweepResult run_sweep(const topo::Network& net,
                      const std::vector<traffic::TrafficMatrix>& matrices,
                      const std::vector<scenario::Scenario>& scenarios,
                      const SweepParams& params, util::Rng& rng,
                      util::ThreadPool& pool) {
  OBS_SPAN("run_sweep");
  ARROW_CHECK(!matrices.empty(), "no traffic matrices");
  const auto& registry = schemes::Registry::global();
  const auto options = scheme_options(params);
  SweepResult result;
  result.scales = params.scales;
  result.schemes = params.schemes;
  bool needs_prepared = false;
  for (const auto& s : result.schemes) {
    result.availability[s].assign(params.scales.size(), 0.0);
    result.throughput[s].assign(params.scales.size(), 0.0);
    result.simplex_iterations[s] = 0;
    result.solve_failures[s].assign(params.scales.size(), 0);
    result.repair_cuts[s] = 0;
    result.repair_local[s] = 0;
    result.repair_fallbacks[s] = 0;
    result.repair_simplex_iterations[s] = 0;
    result.repair_solve_seconds[s] = 0.0;
    result.repair_latency_s[s] = 0.0;
    // capabilities() creates the scheme, so a typo fails here, before any
    // LP runs, with the registered names in the error.
    if (registry.capabilities(s).needs_prepared) needs_prepared = true;
  }

  // Per-matrix calibration + offline ARROW stage, before any chain launches.
  // The rng is consumed here, in matrix order, on the caller's thread — the
  // only draws in the sweep — so the trajectory is thread-count independent.
  const int M = static_cast<int>(matrices.size());
  std::vector<te::TeInput> inputs;
  std::vector<te::ArrowPrepared> prepared(static_cast<std::size_t>(M));
  // Restorability flags per matrix, shared by the matrix's ARROW and
  // ARROW-Naive chains at every scale (the flags depend on tunnels and
  // tickets, not demands, so demand scaling leaves them valid).
  std::vector<std::optional<te::RestorabilityCache>> caches(
      static_cast<std::size_t>(M));
  inputs.reserve(static_cast<std::size_t>(M));
  for (int mi = 0; mi < M; ++mi) {
    te::TeInput input(net, matrices[static_cast<std::size_t>(mi)], scenarios,
                      params.tunnels);
    // Calibrate: scale 1.0 = largest fully-satisfiable uniform load.
    const double calibration = te::max_satisfiable_scale(input);
    ARROW_CHECK(calibration > 0.0, "matrix cannot be satisfied at any scale");
    input.scale_demands(calibration);
    // Offline stage: tickets are demand-independent, shared across scales
    // (and across the ARROW / ARROW-Naive chains of this matrix). Only paid
    // for when a selected scheme consumes it (needs_prepared).
    if (needs_prepared) {
      prepared[static_cast<std::size_t>(mi)] =
          te::prepare_arrow(input, params.arrow, rng, pool);
      caches[static_cast<std::size_t>(mi)].emplace(
          input, prepared[static_cast<std::size_t>(mi)], pool);
    }
    inputs.push_back(std::move(input));
  }

  // One chain per (matrix, scheme): scales sequential inside the chain so
  // each solve can warm-start from the previous scale's basis; chains run
  // concurrently and each writes only its own output slot.
  struct ChainJob {
    int mi;
    std::string scheme;
  };
  struct ChainOut {
    std::vector<double> availability, throughput;
    std::vector<char> failed;  // per scale: solve came back non-optimal
    long long iterations = 0;
    RepairStats repairs;
  };
  std::vector<ChainJob> jobs;
  for (int mi = 0; mi < M; ++mi) {
    for (const auto& scheme : result.schemes) jobs.push_back({mi, scheme});
  }
  std::vector<ChainOut> outs(jobs.size());

  pool.parallel_for(0, static_cast<int>(jobs.size()), [&](int ji) {
    OBS_SPAN("sweep_chain");
    const ChainJob& job = jobs[static_cast<std::size_t>(ji)];
    ChainOut& out = outs[static_cast<std::size_t>(ji)];
    out.availability.assign(params.scales.size(), 0.0);
    out.throughput.assign(params.scales.size(), 0.0);
    out.failed.assign(params.scales.size(), 0);
    // One scheme instance per chain: instance-local state (PXT's trail plan)
    // is computed once and shared across the chain's scales, never across
    // threads.
    const std::unique_ptr<schemes::Scheme> scheme =
        registry.create(job.scheme, options);
    const bool repair_aware = scheme->capabilities().supports_local_repair;
    // Private copy: scale_demands mutates the input in place.
    te::TeInput input = inputs[static_cast<std::size_t>(job.mi)];
    const te::ArrowPrepared& prep = prepared[static_cast<std::size_t>(job.mi)];
    const auto& mcache = caches[static_cast<std::size_t>(job.mi)];
    const te::RestorabilityCache* rcache = mcache ? &*mcache : nullptr;
    // Model builds inside a chain stay on this worker thread: the chains
    // themselves are the parallelism, and fanning out again onto the pool
    // that runs this chain could deadlock it.
    util::ThreadPool chain_pool(1);
    std::optional<solver::ScopedWarmStartCache> cache;
    if (params.warm_start) cache.emplace();
    double prev_scale = 1.0;
    for (std::size_t si = 0; si < params.scales.size(); ++si) {
      input.scale_demands(params.scales[si] / prev_scale);
      prev_scale = params.scales[si];
      const te::TeSolution sol =
          scheme->solve(input, prep, chain_pool, rcache);
      out.iterations += sol.simplex_iterations;
      if (!sol.optimal) {
        out.failed[si] = 1;
        continue;
      }
      const Evaluation eval =
          repair_aware ? evaluate_with_repairs(input, sol, *scheme,
                                               &out.repairs)
                       : evaluate(input, sol);
      out.availability[si] = eval.availability;
      out.throughput[si] = eval.throughput;
    }
  });

  // Merge in job order: the floating-point sums see the same addend order
  // no matter how the chains were scheduled.
  for (std::size_t ji = 0; ji < jobs.size(); ++ji) {
    const ChainJob& job = jobs[ji];
    auto& avail = result.availability[job.scheme];
    auto& thr = result.throughput[job.scheme];
    auto& fails = result.solve_failures[job.scheme];
    for (std::size_t si = 0; si < params.scales.size(); ++si) {
      avail[si] += outs[ji].availability[si];
      thr[si] += outs[ji].throughput[si];
      fails[si] += outs[ji].failed[si];
    }
    result.simplex_iterations[job.scheme] += outs[ji].iterations;
    const RepairStats& rs = outs[ji].repairs;
    result.repair_cuts[job.scheme] += rs.cuts;
    result.repair_local[job.scheme] += rs.local;
    result.repair_fallbacks[job.scheme] += rs.fallbacks;
    result.repair_simplex_iterations[job.scheme] += rs.iterations;
    result.repair_solve_seconds[job.scheme] += rs.solve_seconds;
    result.repair_latency_s[job.scheme] += rs.latency_s;
  }
  long long total_local = 0;
  long long total_fallbacks = 0;
  for (const auto& entry : result.repair_local) total_local += entry.second;
  for (const auto& entry : result.repair_fallbacks) {
    total_fallbacks += entry.second;
  }
  if (total_local > 0) {
    obs::Registry::global()
        .counter("arrow_sim_local_repairs_total")
        .add(static_cast<std::uint64_t>(total_local));
  }
  if (total_fallbacks > 0) {
    obs::Registry::global()
        .counter("arrow_sim_local_repair_fallbacks_total")
        .add(static_cast<std::uint64_t>(total_fallbacks));
  }

  // Average over the matrices that actually solved: a failed solve is
  // reported in solve_failures, not silently averaged in as 0.0.
  const int n = M;
  for (auto& [scheme, values] : result.availability) {
    const auto& fails = result.solve_failures[scheme];
    for (std::size_t si = 0; si < values.size(); ++si) {
      const int ok = n - fails[si];
      values[si] = ok > 0 ? values[si] / ok : 0.0;
    }
  }
  for (auto& [scheme, values] : result.throughput) {
    const auto& fails = result.solve_failures[scheme];
    for (std::size_t si = 0; si < values.size(); ++si) {
      const int ok = n - fails[si];
      values[si] = ok > 0 ? values[si] / ok : 0.0;
    }
  }
  return result;
}

SweepResult run_sweep(const topo::Network& net,
                      const std::vector<traffic::TrafficMatrix>& matrices,
                      const std::vector<scenario::Scenario>& scenarios,
                      const SweepParams& params, util::Rng& rng) {
  return run_sweep(net, matrices, scenarios, params, rng, util::global_pool());
}

}  // namespace arrow::sim
