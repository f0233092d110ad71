// Deterministic parallelism: the offline ARROW stage and the evaluation
// sweep must produce byte-identical results at any thread count. This is
// the contract documented in util/parallel.h — the pool only decides where
// work runs, never what work happens, and all randomness comes from
// counter-seeded per-index streams.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/sweep.h"
#include "te/arrow.h"
#include "te/basic.h"
#include "topo/builders.h"
#include "traffic/traffic.h"
#include "util/parallel.h"

namespace arrow {
namespace {

struct Workload {
  topo::Network net;
  std::vector<traffic::TrafficMatrix> matrices;
  std::vector<scenario::Scenario> scenarios;
  te::TunnelParams tunnels;
  std::unique_ptr<te::TeInput> input;

  Workload() : net(topo::build_b4()) {
    util::Rng rng(404);
    traffic::TrafficParams tp;
    tp.num_matrices = 1;
    matrices = traffic::generate_traffic(net, tp, rng);
    scenario::ScenarioParams sp;
    sp.probability_cutoff = 0.005;
    auto set = scenario::generate_scenarios(net, sp, rng);
    scenarios = scenario::remove_disconnecting(net, set.scenarios);
    tunnels.tunnels_per_flow = 5;
    input = std::make_unique<te::TeInput>(net, matrices[0], scenarios, tunnels);
    input->scale_demands(te::max_satisfiable_scale(*input) * 0.6);
  }
};

void expect_identical(const te::ArrowPrepared& a, const te::ArrowPrepared& b,
                      int threads) {
  ASSERT_EQ(a.tickets.size(), b.tickets.size());
  ASSERT_EQ(a.rwa.size(), b.rwa.size());
  for (std::size_t q = 0; q < a.tickets.size(); ++q) {
    EXPECT_EQ(a.rwa[q].optimal, b.rwa[q].optimal) << "threads=" << threads;
    EXPECT_EQ(a.rwa[q].total_restored_waves, b.rwa[q].total_restored_waves)
        << "scenario " << q << " threads=" << threads;
    EXPECT_EQ(a.tickets[q].failed_links, b.tickets[q].failed_links);
    const auto& ta = a.tickets[q].tickets;
    const auto& tb = b.tickets[q].tickets;
    ASSERT_EQ(ta.size(), tb.size()) << "scenario " << q
                                    << " threads=" << threads;
    for (std::size_t z = 0; z < ta.size(); ++z) {
      EXPECT_EQ(ta[z].waves, tb[z].waves)
          << "scenario " << q << " ticket " << z << " threads=" << threads;
      EXPECT_EQ(ta[z].gbps, tb[z].gbps);
      EXPECT_EQ(ta[z].path_waves, tb[z].path_waves);
    }
  }
}

TEST(Determinism, PrepareArrowIsThreadCountInvariant) {
  Workload w;
  te::ArrowParams params;
  params.tickets.num_tickets = 4;

  util::ThreadPool pool1(1);
  util::Rng rng1(99);
  const auto base = te::prepare_arrow(*w.input, params, rng1, pool1);
  ASSERT_FALSE(base.tickets.empty());

  for (int threads : {2, 8}) {
    util::ThreadPool pool(threads);
    util::Rng rng(99);
    const auto got = te::prepare_arrow(*w.input, params, rng, pool);
    expect_identical(base, got, threads);
    // The caller rng must be consumed identically too (one base draw).
    EXPECT_EQ(rng.next_u64(), [] {
      util::Rng r(99);
      (void)r.next_u64();
      return r.next_u64();
    }()) << "threads=" << threads;
  }
}

TEST(Determinism, RunSweepIsThreadCountInvariant) {
  Workload w;
  sim::SweepParams params;
  params.scales = {0.4, 0.8};
  // Without FFC-2 and TeaVaR: keep the matrix of solves small.
  params.schemes = {"ARROW", "ARROW-Naive", "FFC-1", "ECMP"};
  params.tunnels = w.tunnels;
  params.arrow.tickets.num_tickets = 4;

  util::ThreadPool pool1(1);
  util::Rng rng1(31);
  const auto base =
      sim::run_sweep(w.net, w.matrices, w.scenarios, params, rng1, pool1);

  for (int threads : {2, 8}) {
    util::ThreadPool pool(threads);
    util::Rng rng(31);
    const auto got =
        sim::run_sweep(w.net, w.matrices, w.scenarios, params, rng, pool);
    ASSERT_EQ(got.schemes, base.schemes) << "threads=" << threads;
    for (const auto& scheme : base.schemes) {
      // Byte-identical, not approximately equal: same chains, same scale
      // order, same merge order => the exact same doubles.
      EXPECT_EQ(got.availability.at(scheme), base.availability.at(scheme))
          << scheme << " threads=" << threads;
      EXPECT_EQ(got.throughput.at(scheme), base.throughput.at(scheme))
          << scheme << " threads=" << threads;
      EXPECT_EQ(got.simplex_iterations.at(scheme),
                base.simplex_iterations.at(scheme))
          << scheme << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace arrow
