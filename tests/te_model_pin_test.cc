// Pins the exact LP every TE scheme hands the simplex. A solve observer
// captures each lowered computational-form Lp and hashes its bits (FNV-1a
// over the constraint matrix's col_start/row_index/value, cost, lower,
// upper and rhs), so any change to variable order, bounds, costs, row order
// or row contents fails here even when the optimum happens not to move.
//
// Covered on B4 and IBM at fixed seeds: max-throughput, the demand-scale
// calibration LP, FFC-1, FFC-2, TeaVaR, ARROW (Phase I then Phase II),
// ARROW-Naive, every master round of ARROW's decomposed Phase I,
// ReWeave's global re-solve and ReWeave-Local's repair (including its
// global fallback when the local LP falls short). The ARROW artifacts are
// built on an inline ThreadPool(1) so every LP of interest runs on the
// observing thread. On B4 the Model::fingerprint of ARROW's three built but
// unsolved models (Phase I, Phase II, the exact ILP) is pinned as well.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "schemes/reweave.h"
#include "solver/lp.h"
#include "te/arrow.h"
#include "te/basic.h"
#include "te/ffc.h"
#include "te/teavar.h"
#include "topo/builders.h"
#include "traffic/traffic.h"
#include "util/hash.h"
#include "util/parallel.h"

namespace arrow {
namespace {

// Raw IEEE-754 bits, sign of zero included (util::Fnv1a::f64 folds -0.0).
void hash_doubles(util::Fnv1a& h, const std::vector<double>& v) {
  h.u64(v.size());
  for (double x : v) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    h.u64(bits);
  }
}

std::uint64_t lp_hash(const solver::Lp& lp) {
  util::Fnv1a h;
  h.i32(lp.a.rows).i32(lp.a.cols);
  h.u64(lp.a.col_start.size());
  for (int s : lp.a.col_start) h.i32(s);
  h.u64(lp.a.row_index.size());
  for (int r : lp.a.row_index) h.i32(r);
  hash_doubles(h, lp.a.value);
  hash_doubles(h, lp.cost);
  hash_doubles(h, lp.lower);
  hash_doubles(h, lp.upper);
  hash_doubles(h, lp.rhs);
  return h.value();
}

// Hashes of every LP solved on this thread while `fn` runs, in solve order.
template <typename Fn>
std::vector<std::uint64_t> capture(Fn&& fn) {
  std::vector<std::uint64_t> hashes;
  solver::ScopedSolveObserver observer(
      [&](const solver::Lp& lp, solver::LpSolution&) {
        hashes.push_back(lp_hash(lp));
      });
  fn();
  return hashes;
}

struct Workload {
  topo::Network net;
  std::vector<scenario::Scenario> scenarios;
  std::unique_ptr<te::TeInput> input;
  te::ArrowParams arrow_params;
  te::ArrowPrepared prepared;
  util::ThreadPool pool{1};
  std::map<std::string, std::vector<std::uint64_t>> lps;

  Workload(topo::Network network, std::uint64_t seed, double cutoff,
           int tunnels_per_flow)
      : net(std::move(network)) {
    util::Rng rng(seed);
    traffic::TrafficParams tp;
    tp.num_matrices = 1;
    const auto matrices = traffic::generate_traffic(net, tp, rng);
    scenario::ScenarioParams sp;
    sp.probability_cutoff = cutoff;
    auto set = scenario::generate_scenarios(net, sp, rng);
    scenarios = scenario::remove_disconnecting(net, set.scenarios);
    te::TunnelParams tun;
    tun.tunnels_per_flow = tunnels_per_flow;
    input = std::make_unique<te::TeInput>(net, matrices[0], scenarios, tun);

    double scale = 0.0;
    lps["calibration"] =
        capture([&] { scale = te::max_satisfiable_scale(*input); });
    input->scale_demands(scale * 0.9);

    arrow_params.tickets.num_tickets = 4;
    prepared = te::prepare_arrow(*input, arrow_params, rng, pool);
    const te::RestorabilityCache cache(*input, prepared, pool);

    te::TeSolution healthy;
    lps["MaxThroughput"] =
        capture([&] { healthy = te::solve_max_throughput(*input); });
    lps["FFC-1"] = capture([&] { te::solve_ffc(*input, te::FfcParams{1}); });
    lps["FFC-2"] = capture([&] { te::solve_ffc(*input, te::FfcParams{2}); });
    lps["TeaVaR"] = capture([&] { te::solve_teavar(*input); });
    lps["ARROW"] = capture(
        [&] { te::solve_arrow(*input, prepared, arrow_params, pool, &cache); });
    lps["ARROW-Naive"] = capture([&] {
      te::solve_arrow_naive(*input, prepared, arrow_params, pool, &cache);
    });
    // Phase II against each scenario's first randomized ticket, so a
    // non-naive restoration plan is pinned even when the naive candidate
    // wins Phase I everywhere.
    lps["ARROW-Ticket0"] = capture([&] {
      te::solve_arrow_with_winners(
          *input, prepared,
          std::vector<int>(static_cast<std::size_t>(input->num_scenarios()), 0),
          pool, &cache);
    });
    // The decomposed Phase I solves only its master, once per round; the
    // rounds pin the lazily added cover rows and optimality cuts.
    te::ArrowParams decomposed = arrow_params;
    decomposed.decomposition.enabled = true;
    lps["ARROW-Decomposed"] = capture([&] {
      te::solve_phase1(*input, prepared, decomposed, pool, &cache);
    });
    // Three scenarios each: the re-solves differ only in the dead-tunnel
    // mask, the repairs in which flows the cut touches.
    lps["ReWeave-Global"] = capture([&] {
      for (int q = 0; q < 3 && q < input->num_scenarios(); ++q) {
        schemes::global_resolve(*input, input->failed_links(q));
      }
    });
    lps["ReWeave-Local"] = capture([&] {
      for (int q = 0; q < 3 && q < input->num_scenarios(); ++q) {
        schemes::local_repair(*input, healthy, input->failed_links(q));
      }
    });
  }
};

using Pins = std::map<std::string, std::vector<std::uint64_t>>;

std::string format(const std::vector<std::uint64_t>& hashes) {
  std::string out = "{";
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s0x%016llxull", i == 0 ? "" : ", ",
                  static_cast<unsigned long long>(hashes[i]));
    out += buf;
  }
  return out + "}";
}

void expect_pinned(const Workload& w, const Pins& pins) {
  for (const auto& [scheme, hashes] : w.lps) {
    EXPECT_FALSE(hashes.empty()) << scheme << " solved no LP";
    const auto it = pins.find(scheme);
    EXPECT_EQ(hashes, it == pins.end() ? std::vector<std::uint64_t>{}
                                       : it->second)
        << scheme << " LP moved; now {\"" << scheme << "\", "
        << format(hashes) << "},";
  }
  EXPECT_EQ(pins.size(), w.lps.size());
}

// Model::fingerprint of ARROW's built models: Phase I, Phase II against
// each scenario's ticket 0 and the exact ILP, whose big-M rows no solve
// above reaches.
std::map<std::string, std::uint64_t> build_fingerprints(Workload& w) {
  const std::vector<int> ticket0(
      static_cast<std::size_t>(w.input->num_scenarios()), 0);
  return {
      {"phase1", te::build_phase1_model(*w.input, w.prepared, w.arrow_params,
                                        w.pool)
                     .model_fingerprint},
      {"phase2", te::build_phase2_model(*w.input, w.prepared, ticket0,
                                        w.arrow_params, w.pool)
                     .model_fingerprint},
      {"ilp", te::build_arrow_ilp_model(*w.input, w.prepared, w.arrow_params,
                                        w.pool)
                  .model_fingerprint},
  };
}

void expect_fingerprints(Workload& w,
                         const std::map<std::string, std::uint64_t>& pins) {
  for (const auto& [model, fp] : build_fingerprints(w)) {
    const auto it = pins.find(model);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llxull",
                  static_cast<unsigned long long>(fp));
    EXPECT_TRUE(it != pins.end() && it->second == fp)
        << model << " model moved; now {\"" << model << "\", " << buf << "},";
  }
}

// A refactor of the model builders (te::add_base, add_capacity_rows and
// the schemes' own rows) must keep every hash. A change that moves one must
// say which variable, bound or row moved and why.
TEST(TeModelPin, B4) {
  Workload w(topo::build_b4(), 2021, 0.001, 6);
  expect_pinned(w, Pins{
      {"ARROW",
       {0x61cad6c0a4ae5a1bull,
        0x2af2df2042bad446ull}},
      {"ARROW-Decomposed",
       {0xa199ecea6399fdafull,
        0xcced7aa7df75986full,
        0x19bdb1d1789a336cull,
        0xcd5d3a8068e5ce76ull,
        0x01c06575e54d0690ull,
        0x036f93991f63ecb0ull,
        0x392acda107df4b5dull,
        0xa10e499cdd386ec6ull,
        0xd934ddf6af39489aull}},
      {"ARROW-Naive", {0x2af2df2042bad446ull}},
      {"ARROW-Ticket0", {0x56fd7eafa40d53ccull}},
      {"FFC-1", {0x716c636d3c93748dull}},
      {"FFC-2", {0xc952c2c409c79ad8ull}},
      {"MaxThroughput", {0x8a46432c173987e3ull}},
      {"ReWeave-Global",
       {0xae136889e13f22d3ull,
        0x5fe2236c78f86e0full,
        0xcf089f343329a0d7ull}},
      {"ReWeave-Local",
       {0x05557a4a95aa9dcfull,
        0xae136889e13f22d3ull,
        0xa0c85b11e0a05102ull,
        0x5fe2236c78f86e0full,
        0x55ce0c7efedb0e8aull,
        0xcf089f343329a0d7ull}},
      {"TeaVaR", {0xec9a03a1fa0505cfull}},
      {"calibration", {0x595cdf15f34e729eull}},
  });
  expect_fingerprints(w, {
      {"ilp", 0x6b2bedd99b6d6d3eull},
      {"phase1", 0xc40eaa758d143735ull},
      {"phase2", 0x9c01a86a7de116a3ull},
  });
}

TEST(TeModelPin, Ibm) {
  const Workload w(topo::build_ibm(), 7, 0.005, 6);
  expect_pinned(w, Pins{
      {"ARROW",
       {0x23fdf7d74120f607ull,
        0xe30dd08f33718802ull}},
      {"ARROW-Decomposed",
       {0x19eee4db3aaf1f1eull,
        0x064b983fd0710ad1ull,
        0xce682c6731a7cd42ull,
        0xaca5aae707f9baa9ull,
        0x9fff80b8121fc6f2ull,
        0x59297ac186196b5dull,
        0x9d6b4ac2de0c34d6ull,
        0x742e24911bea0cbeull,
        0xa042062419892b0aull,
        0x4f8ba569485ff349ull}},
      {"ARROW-Naive", {0xe30dd08f33718802ull}},
      {"ARROW-Ticket0", {0x5613c511d2233043ull}},
      {"FFC-1", {0x6b8489ad92697996ull}},
      {"FFC-2", {0x7285ff7d99895b92ull}},
      {"MaxThroughput", {0x57b7621f519c64d2ull}},
      {"ReWeave-Global",
       {0xaa82c7f43e55f9abull,
        0xd93ae94e53f51117ull,
        0x1e88e14b3b197c8eull}},
      {"ReWeave-Local",
       {0x178d6f71fec8204full,
        0xaa82c7f43e55f9abull,
        0x8dab88ecd359699full,
        0xd93ae94e53f51117ull,
        0xe1cabe465eafc1f5ull,
        0x1e88e14b3b197c8eull}},
      {"TeaVaR", {0x6531b8da25777369ull}},
      {"calibration", {0x9bec90543c67a89bull}},
  });
}

}  // namespace
}  // namespace arrow
