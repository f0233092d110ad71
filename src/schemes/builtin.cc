// The six legacy competitors, adapted to the Scheme interface. Each solve()
// forwards to the exact te:: call the sweep's old if-chain made — same
// arguments, same order — so sweep output through the registry stays
// byte-identical to the pre-registry sweep.
#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "schemes/builtin.h"
#include "optical/rwa.h"
#include "te/basic.h"
#include "ticket/ticket.h"
#include "util/rng.h"

namespace arrow::schemes {

namespace {

// Donor for a cut with no exact plan: the scenario whose failed IP links
// overlap `failed_now` most (Jaccard); ties prefer fewer cut fibers (plans
// transplant more cleanly), then the lower index. -1 when no scenario with
// a restoration plan shares a failed link.
int nearest_scenario(const te::TeInput& input,
                     const te::ArrowPrepared& prepared,
                     const std::set<topo::IpLinkId>& failed_now) {
  const auto& scenarios = input.scenarios();
  int best_q = -1;
  double best_score = 0.0;
  std::size_t best_cuts = 0;
  for (std::size_t q = 0; q < prepared.rwa.size(); ++q) {
    if (prepared.rwa[q].links.empty()) continue;
    const auto& sf = input.failed_links(static_cast<int>(q));
    std::size_t inter = 0;
    for (topo::IpLinkId e : sf) inter += failed_now.count(e);
    if (inter == 0) continue;
    const double uni =
        static_cast<double>(failed_now.size() + sf.size() - inter);
    const double score = static_cast<double>(inter) / uni;
    if (best_q < 0 || score > best_score + 1e-12 ||
        (score > best_score - 1e-12 && scenarios[q].cuts.size() < best_cuts)) {
      best_q = static_cast<int>(q);
      best_score = score;
      best_cuts = scenarios[q].cuts.size();
    }
  }
  return best_q;
}

// The cut answer of the optically-restoring pair. A cut that matches a
// precomputed scenario gets that scenario's plan. Any other cut gets the
// nearest scenario's plan transplanted: only entries for links this cut
// failed are kept. Either way the plan's surrogate paths that cross any
// active cut are zeroed (the plan was made around its scenario's cuts
// only), and slots are assigned and the replay simulated around every
// active cut. The TE plan itself is unchanged — ARROW's headroom was
// provisioned at solve time — so the answer is the wave-up timeline of the
// simulated optical reconfiguration.
CutRepair restore_optically(const CutContext& ctx,
                            const optical::LatencyParams& latency) {
  CutRepair repair;
  if (ctx.prepared == nullptr || ctx.cache == nullptr || ctx.rng == nullptr) {
    return repair;
  }
  const auto& net = ctx.input.net();
  const auto& rwa = ctx.prepared->rwa;
  const bool planned = ctx.scenario >= 0;
  std::set<topo::IpLinkId> failed_now;
  int q = ctx.scenario;
  if (planned) {
    if (static_cast<std::size_t>(q) >= rwa.size()) return repair;
  } else {
    const auto failed_v = net.failed_ip_links({ctx.fiber});
    failed_now.insert(failed_v.begin(), failed_v.end());
    if (failed_now.empty()) return repair;
    q = nearest_scenario(ctx.input, *ctx.prepared, failed_now);
    if (q < 0) return repair;
  }
  const auto& donor = rwa[static_cast<std::size_t>(q)].links;
  // Its Phase I winner ticket when the plan carries one, else the naive
  // RWA plan (ARROW-Naive and the fallback rungs carry no winners, but
  // restoration must still go out).
  const ticket::LotteryTicket& ticket = te::ticket_or_naive(
      *ctx.prepared, *ctx.cache, q,
      static_cast<std::size_t>(q) < ctx.plan.winner.size()
          ? ctx.plan.winner[static_cast<std::size_t>(q)]
          : -1);
  std::vector<optical::LinkRestoration> links;
  std::vector<std::vector<int>> want;
  for (std::size_t li = 0; li < donor.size(); ++li) {
    if (!planned && !failed_now.count(donor[li].link)) continue;
    std::vector<int> w = li < ticket.path_waves.size()
                             ? ticket.path_waves[li]
                             : std::vector<int>{};
    w.resize(donor[li].paths.size(), 0);
    for (std::size_t pi = 0; pi < donor[li].paths.size(); ++pi) {
      for (topo::FiberId f : donor[li].paths[pi].fibers) {
        if (std::find(ctx.cuts.begin(), ctx.cuts.end(), f) !=
            ctx.cuts.end()) {
          w[pi] = 0;
          break;
        }
      }
    }
    links.push_back(donor[li]);
    want.push_back(std::move(w));
  }
  if (planned) {
    repair.planned = true;
  } else {
    if (links.empty()) return repair;
    repair.transplanted = true;
  }
  optical::assign_slots_first_fit(net, ctx.cuts, links, want);
  repair.ok = true;
  const auto plan = optical::plan_from_restoration(net, links);
  if (plan.empty()) return repair;
  util::Rng replay = ctx.rng->fork();
  auto result =
      optical::simulate_restoration(net, ctx.cuts, plan, latency, replay);
  repair.latency_s = result.total_s;
  repair.restored_gbps = result.restored_gbps;
  for (auto& point : result.timeline) {
    if (point.link >= 0) repair.timeline.push_back(std::move(point));
  }
  return repair;
}

// ARROW and ARROW-Naive differ only in the Phase II tickets: Phase I
// winners, or the naive RWA plan for every scenario.
class ArrowScheme final : public Scheme {
 public:
  ArrowScheme(std::string name, SchemeOptions options, bool naive)
      : name_(std::move(name)), options_(std::move(options)), naive_(naive) {}
  const std::string& name() const override { return name_; }
  Capabilities capabilities() const override {
    Capabilities caps;
    caps.needs_prepared = true;
    return caps;
  }
  te::TeSolution solve(const te::TeInput& input,
                       const te::ArrowPrepared& prepared,
                       util::ThreadPool& pool,
                       const te::RestorabilityCache* cache) override {
    return naive_ ? te::solve_arrow_naive(input, prepared, options_.arrow,
                                          pool, cache)
                  : te::solve_arrow(input, prepared, options_.arrow, pool,
                                    cache);
  }
  CutRepair on_cut(const CutContext& ctx) override {
    return restore_optically(ctx, options_.latency);
  }

 private:
  const std::string name_;
  SchemeOptions options_;
  const bool naive_;
};

class FfcScheme final : public Scheme {
 public:
  FfcScheme(std::string name, te::FfcParams params)
      : name_(std::move(name)), params_(params) {}
  const std::string& name() const override { return name_; }
  Capabilities capabilities() const override { return {}; }
  te::TeSolution solve(const te::TeInput& input, const te::ArrowPrepared&,
                       util::ThreadPool&,
                       const te::RestorabilityCache*) override {
    return te::solve_ffc(input, params_);
  }

 private:
  const std::string name_;
  const te::FfcParams params_;
};

class TeaVarScheme final : public Scheme {
 public:
  explicit TeaVarScheme(SchemeOptions options)
      : options_(std::move(options)) {}
  const std::string& name() const override { return name_; }
  Capabilities capabilities() const override { return {}; }
  te::TeSolution solve(const te::TeInput& input, const te::ArrowPrepared&,
                       util::ThreadPool&,
                       const te::RestorabilityCache*) override {
    return te::solve_teavar(input, options_.teavar);
  }

 private:
  const std::string name_ = "TeaVaR";
  SchemeOptions options_;
};

class EcmpScheme final : public Scheme {
 public:
  const std::string& name() const override { return name_; }
  Capabilities capabilities() const override { return {}; }
  te::TeSolution solve(const te::TeInput& input, const te::ArrowPrepared&,
                       util::ThreadPool&,
                       const te::RestorabilityCache*) override {
    return te::solve_ecmp(input);
  }

 private:
  const std::string name_ = "ECMP";
};

}  // namespace

std::unique_ptr<Scheme> make_arrow(const SchemeOptions& options) {
  return std::make_unique<ArrowScheme>("ARROW", options, /*naive=*/false);
}

std::unique_ptr<Scheme> make_arrow_naive(const SchemeOptions& options) {
  return std::make_unique<ArrowScheme>("ARROW-Naive", options,
                                       /*naive=*/true);
}

std::unique_ptr<Scheme> make_ffc1(const SchemeOptions&) {
  return std::make_unique<FfcScheme>("FFC-1", te::FfcParams{1, 0});
}

std::unique_ptr<Scheme> make_ffc2(const SchemeOptions& options) {
  return std::make_unique<FfcScheme>(
      "FFC-2", te::FfcParams{2, options.ffc2_max_double_scenarios});
}

std::unique_ptr<Scheme> make_teavar(const SchemeOptions& options) {
  return std::make_unique<TeaVarScheme>(options);
}

std::unique_ptr<Scheme> make_ecmp(const SchemeOptions&) {
  return std::make_unique<EcmpScheme>();
}

}  // namespace arrow::schemes
