#include "schemes/pxt.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "optical/rwa.h"
#include "schemes/builtin.h"
#include "te/basic.h"

namespace arrow::schemes {

PxtTrailPlan plan_trails(const topo::Network& net,
                         const std::vector<scenario::Scenario>& scenarios,
                         const PxtParams& params) {
  PxtTrailPlan out;
  out.restored.resize(scenarios.size());
  const std::size_t num_fibers = net.optical.fibers.size();
  // Live spectrum plus the accumulating reservations. Unlike the
  // restoration RWA, nothing is deprovisioned: at provisioning time the
  // protected link's own wavelengths are still lit on their primary path,
  // and a trail must coexist with them until the cut actually happens.
  const auto occupancy = net.spectrum_occupancy();
  std::vector<std::vector<char>> reserved(num_fibers);
  for (std::size_t f = 0; f < num_fibers; ++f) {
    reserved[f].assign(
        static_cast<std::size_t>(net.optical.fibers[f].slots), 0);
  }

  optical::RwaOptions rwa_opt;
  rwa_opt.k_paths = params.k_paths;
  for (std::size_t q = 0; q < scenarios.size(); ++q) {
    // The RWA supplies the candidate surrogate paths (geometry, reach-aware
    // datarate, lost-wave counts); its fractional assignment and free-slot
    // view are ignored — trail feasibility is checked below against the
    // full occupancy and the global reservation map.
    const optical::RwaResult rwa =
        optical::solve_rwa(net, scenarios[q].cuts, rwa_opt);
    for (const auto& link : rwa.links) {
      const int want =
          params.max_trail_waves > 0
              ? std::min(link.lost_waves, params.max_trail_waves)
              : link.lost_waves;
      int got = 0;
      for (const auto& path : link.paths) {
        if (got >= want) break;
        int path_waves = 0;
        // First-fit over the whole band: a slot is usable when it is
        // unprovisioned and unreserved on every fiber of the trail.
        int max_slot = 0;
        for (topo::FiberId fid : path.fibers) {
          max_slot = std::max(
              max_slot, net.optical.fibers[static_cast<std::size_t>(fid)].slots);
        }
        for (int slot = 0; slot < max_slot && got < want; ++slot) {
          bool free = true;
          for (topo::FiberId fid : path.fibers) {
            const auto fi = static_cast<std::size_t>(fid);
            const auto si = static_cast<std::size_t>(slot);
            if (slot >= net.optical.fibers[fi].slots ||
                occupancy[fi][si] || reserved[fi][si]) {
              free = false;
              break;
            }
          }
          if (!free) continue;
          for (topo::FiberId fid : path.fibers) {
            reserved[static_cast<std::size_t>(fid)]
                    [static_cast<std::size_t>(slot)] = 1;
            ++out.reserved_slot_count;
          }
          ++got;
          ++path_waves;
          out.restored[q][link.link] += path.gbps;
          out.reserved_gbps += path.gbps;
        }
        if (path_waves > 0) ++out.trails;
      }
      if (got == 0) ++out.unprotected_links;
    }
  }

  out.reserved_slots.resize(num_fibers);
  for (std::size_t f = 0; f < num_fibers; ++f) {
    for (std::size_t s = 0; s < reserved[f].size(); ++s) {
      if (reserved[f][s]) {
        out.reserved_slots[f].push_back(static_cast<int>(s));
      }
    }
  }
  return out;
}

namespace {

// PXT as a sweep entrant: the installed plan is max-throughput TE (like a
// fully-restorable-TE believer, it provisions no failure headroom) and the
// per-scenario restored capacity comes from the pre-computed trails, which
// the standard evaluator credits through TeSolution::restored.
class PxtScheme final : public Scheme {
 public:
  explicit PxtScheme(SchemeOptions options) : options_(std::move(options)) {}

  const std::string& name() const override { return name_; }

  Capabilities capabilities() const override { return {}; }

  te::TeSolution solve(const te::TeInput& input, const te::ArrowPrepared&,
                       util::ThreadPool&,
                       const te::RestorabilityCache*) override {
    ensure_trails(input);
    te::TeSolution sol = te::solve_max_throughput(input);
    sol.scheme = name_;
    sol.restored = trails_->restored;
    return sol;
  }

  CutRepair on_cut(const CutContext& ctx) override {
    CutRepair repair;
    if (ctx.scenario < 0) return repair;
    ensure_trails(ctx.input);
    const auto q = static_cast<std::size_t>(ctx.scenario);
    if (q >= trails_->restored.size()) return repair;
    // The trails are already cross-connected: restoration is a lookup plus
    // a transponder switchover — zero solve cost, the whole point — and
    // every trail wave comes up at once.
    repair.ok = true;
    repair.planned = true;
    repair.latency_s = options_.pxt.detection_s + options_.pxt.switchover_s;
    for (const auto& [link, gbps] : trails_->restored[q]) {
      repair.restored_gbps += gbps;
      repair.timeline.push_back(
          {repair.latency_s, repair.restored_gbps, "trail up", link, gbps});
    }
    return repair;
  }

 private:
  void ensure_trails(const te::TeInput& input) {
    if (trails_ && net_ == &input.net()) return;
    net_ = &input.net();
    trails_ = plan_trails(input.net(), input.scenarios(), options_.pxt);
  }

  const std::string name_ = "PXT";
  SchemeOptions options_;
  const topo::Network* net_ = nullptr;
  std::optional<PxtTrailPlan> trails_;
};

}  // namespace

std::unique_ptr<Scheme> make_pxt(const SchemeOptions& options) {
  return std::make_unique<PxtScheme>(options);
}

}  // namespace arrow::schemes
