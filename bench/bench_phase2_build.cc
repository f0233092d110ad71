// Phase II (Table 3) model-build cost: incidence index + shared
// RestorabilityCache, timed with the cache shared and with it built inside
// the call.
//
// The build reads the link->tunnel incidence index, pulls flags from the
// shared cache, and appends every scenario's rows in one serial pass; only
// the cache's construction runs on the pool. Every configuration must
// produce bit-identical models — verified via Model::fingerprint at 1/2/8
// threads with the cache shared and rebuilt — and a solve cross-check
// confirms the identical models also yield identical ARROW-Naive solutions.
// It also times the rebind of the cache's resident Phase II LP on new
// demands against a fresh build, and requires the same fingerprint.
//
// Environment knobs: ARROW_BENCH_FAST=1 shrinks to the IBM topology for
// CI-speed runs (bench-smoke). Results land in BENCH_phase2_build.json.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "te/arrow.h"
#include "te/basic.h"
#include "topo/builders.h"
#include "traffic/traffic.h"
#include "util/parallel.h"

using namespace arrow;

namespace {

bool env_flag(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] == '1';
}

double solution_checksum(const te::TeSolution& sol) {
  double sum = sol.objective;
  for (std::size_t f = 0; f < sol.alloc.size(); ++f) {
    for (std::size_t ti = 0; ti < sol.alloc[f].size(); ++ti) {
      sum += static_cast<double>((f + 1) * (ti + 2)) * sol.alloc[f][ti];
    }
  }
  return sum;
}

}  // namespace

int main() {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  const bool fast_mode = env_flag("ARROW_BENCH_FAST");
  const topo::Network net =
      fast_mode ? topo::build_ibm() : topo::build_fbsynth();
  util::Rng rng(2024);
  traffic::TrafficParams tp;
  tp.num_matrices = 1;
  const auto ms = traffic::generate_traffic(net, tp, rng);
  scenario::ScenarioParams sp;
  sp.probability_cutoff = 0.001;
  auto scen = scenario::generate_scenarios(net, sp, rng);
  const auto scenarios = scenario::remove_disconnecting(net, scen.scenarios);
  te::TunnelParams tun;
  tun.tunnels_per_flow = fast_mode ? 6 : 8;
  te::TeInput input(net, ms[0], scenarios, tun);
  input.scale_demands(te::max_satisfiable_scale(input) * 0.6);
  te::ArrowParams params;
  params.tickets.num_tickets = fast_mode ? 6 : 10;

  const int n_threads = util::default_thread_count();
  util::ThreadPool pool(n_threads);
  util::Rng prep_rng(7);
  const auto prepared = te::prepare_arrow(input, params, prep_rng, pool);

  // Mixed winner vector: the naive RWA plan for odd scenarios, the first
  // real candidate where one exists for even ones — exercises both the
  // cached per-ticket and cached naive flag paths.
  std::vector<int> winners(static_cast<std::size_t>(input.num_scenarios()), -1);
  for (int q = 0; q < input.num_scenarios(); q += 2) {
    if (!prepared.tickets[static_cast<std::size_t>(q)].tickets.empty()) {
      winners[static_cast<std::size_t>(q)] = 0;
    }
  }

  bench::BenchJson out("phase2_build");
  out.set("topology", net.name);
  out.set("scenarios", static_cast<long long>(scenarios.size()));
  out.set("flows", input.num_flows());
  out.set("tunnels", input.total_tunnels());
  out.set("tickets_per_scenario", params.tickets.num_tickets);
  out.set("threads", n_threads);
  out.set("hardware_concurrency",
          static_cast<long long>(std::thread::hardware_concurrency()));

  bool ok = true;

  // --- build-time measurement ----------------------------------------------
  util::ThreadPool pool1(1), pool2(2), pool8(8);
  const te::RestorabilityCache cache(input, prepared, pool);
  // With the cache shared, as in production (sweep chains, the
  // controller's ladder): the one serial pass over the scenarios' rows.
  const te::ModelBuildStats base =
      te::build_phase2_model(input, prepared, winners, params, pool1, &cache);
  out.set("vars", base.vars);
  out.set("rows", base.rows);
  out.set("build_ms", base.build_seconds * 1e3);
  // Cold build: cache construction on the pool included (an unshared
  // solve pays it).
  const te::ModelBuildStats cold =
      te::build_phase2_model(input, prepared, winners, params, pool);
  out.set("build_with_cache_build_ms", cold.build_seconds * 1e3);
  std::printf("build: %.1f ms shared cache (%d vars, %d rows), "
              "%.1f ms with cache construction\n",
              base.build_seconds * 1e3, base.vars, base.rows,
              cold.build_seconds * 1e3);

  // --- model bit-identity across thread counts and cache sharing ----------
  for (util::ThreadPool* p : {&pool1, &pool2, &pool8}) {
    for (const te::RestorabilityCache* c :
         {static_cast<const te::RestorabilityCache*>(nullptr), &cache}) {
      const te::ModelBuildStats s =
          te::build_phase2_model(input, prepared, winners, params, *p, c);
      if (s.model_fingerprint != base.model_fingerprint ||
          s.vars != base.vars || s.rows != base.rows) {
        std::fprintf(stderr,
                     "FAIL: build (threads=%d, shared_cache=%d) is not "
                     "bit-identical to the baseline model\n",
                     p->threads(), c != nullptr ? 1 : 0);
        ok = false;
      }
    }
  }
  char fp[32];
  std::snprintf(fp, sizeof(fp), "%016llx",
                static_cast<unsigned long long>(base.model_fingerprint));
  out.set("model_fingerprint", std::string(fp));
  if (ok) {
    std::printf("model fingerprint %s identical at 1/2/8 threads, cache "
                "shared and rebuilt\n", fp);
  }

  // --- resident rebind vs fresh build --------------------------------------
  // A re-solve on new demands with the same winners rebinds the cache's
  // resident Phase II LP instead of building one; the rebound model must be
  // the one a fresh build of those demands makes. Medians of five each.
  {
    te::TeInput rescaled = input;
    rescaled.scale_demands(0.9);
    te::resident_phase2_model(input, prepared, winners, cache);  // park it
    std::vector<double> fresh_ms, rebind_ms;
    std::uint64_t fresh_fp = 0;
    for (int k = 0; k < 5; ++k) {
      const te::TeInput& at = k % 2 == 0 ? rescaled : input;
      const te::ModelBuildStats fresh =
          te::build_phase2_model(at, prepared, winners, params, pool1, &cache);
      const te::ModelBuildStats rebind =
          te::resident_phase2_model(at, prepared, winners, cache);
      if (k == 0) fresh_fp = fresh.model_fingerprint;
      if (rebind.model_fingerprint != fresh.model_fingerprint) {
        std::fprintf(stderr,
                     "FAIL: resident rebind %d is not bit-identical to a "
                     "fresh build of the same demands\n", k);
        ok = false;
      }
      fresh_ms.push_back(fresh.build_seconds * 1e3);
      rebind_ms.push_back(rebind.build_seconds * 1e3);
    }
    if (fresh_fp == base.model_fingerprint) {
      std::fprintf(stderr, "FAIL: rescaled demands left the model unchanged\n");
      ok = false;
    }
    std::sort(fresh_ms.begin(), fresh_ms.end());
    std::sort(rebind_ms.begin(), rebind_ms.end());
    out.set("fresh_build_ms", fresh_ms[2]);
    out.set("resident_rebind_ms", rebind_ms[2]);
    std::printf("resident rebind: %.3f ms vs %.1f ms fresh build (medians of "
                "5, fingerprints identical)\n", rebind_ms[2], fresh_ms[2]);
  }

  // --- solution bit-identity (ARROW-Naive = Phase II with naive winners) ---
  const te::TeSolution sol1 =
      te::solve_arrow_naive(input, prepared, params, pool1);
  const te::TeSolution sol8 =
      te::solve_arrow_naive(input, prepared, params, pool8, &cache);
  const double checksum = solution_checksum(sol1);
  out.set("solution_checksum", checksum);
  if (!sol1.optimal || !sol8.optimal || sol8.alloc != sol1.alloc ||
      sol8.objective != sol1.objective) {
    std::fprintf(stderr,
                 "FAIL: ARROW-Naive solution differs across build "
                 "configurations (checksums %.17g vs %.17g)\n",
                 solution_checksum(sol8), checksum);
    ok = false;
  }
  if (ok) {
    std::printf("ARROW-Naive solutions identical at 1/8 threads "
                "(checksum %.17g)\n", checksum);
  }

  out.set("status", std::string(ok ? "ok" : "fail"));
  out.write();
  return ok ? 0 : 1;
}
