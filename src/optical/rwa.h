// Routing and Wavelength Assignment for restoration (paper Appendix A.2).
//
// Given a fiber-cut scenario, find surrogate fiber paths for every failed IP
// link's wavelengths and assign spectrum slots, maximizing the total number
// of restored wavelengths. The ILP is relaxed to an LP (the fractional
// solution seeds LotteryTicket randomized rounding); an exact ILP mode is
// provided for small instances and ablations.
//
// The wavelength-continuity constraint (16) is folded into variable
// construction: a variable exists per (failed link, surrogate path, slot)
// only when the slot is free on *every* fiber of that path.
#pragma once

#include <vector>

#include "topo/network.h"

namespace arrow::optical {

struct SurrogatePath {
  std::vector<topo::FiberId> fibers;
  double km = 0.0;
  // Per-wavelength datarate achievable on this path: the original link
  // modulation, downgraded if the path exceeds its reach (Table 6).
  double gbps = 0.0;
  std::vector<int> usable_slots;     // continuity-feasible free slots
  double fractional_waves = 0.0;     // LP assignment (<= |usable_slots|)
  std::vector<int> assigned_slots;   // ILP mode / integral assignment
};

struct LinkRestoration {
  topo::IpLinkId link = -1;
  int lost_waves = 0;        // gamma_e: wavelengths before the cut
  double original_gbps = 0;  // per-wavelength datarate before the cut
  std::vector<SurrogatePath> paths;

  double fractional_waves() const {
    double s = 0.0;
    for (const auto& p : paths) s += p.fractional_waves;
    return s;
  }
  double fractional_gbps() const {
    double s = 0.0;
    for (const auto& p : paths) s += p.fractional_waves * p.gbps;
    return s;
  }
};

struct RwaResult {
  std::vector<LinkRestoration> links;  // one entry per failed IP link
  double total_restored_waves = 0.0;
  bool optimal = false;
  long long simplex_iterations = 0;
};

struct RwaOptions {
  int k_paths = 3;
  // Solve the exact ILP instead of the LP relaxation (small instances only).
  bool integer = false;
  // Objective: maximize wave count (paper) or gbps-weighted waves (ablation).
  bool weight_by_gbps = false;
  // Cap on restoration-path length as a multiple of the 100G reach; <=0
  // means the Table 6 100 Gbps reach (5000 km) is the only limit.
  double max_path_km = 0.0;
  // Allow transponder frequency retuning. When false, a restored wavelength
  // must keep its original slot on the surrogate path (the paper's
  // "without frequency tuning" variant, Fig. 17c) — restoration then
  // depends on the original frequencies being free end-to-end.
  bool allow_retune = true;
};

// Solve the restoration RWA for the given cut fibers. Wavelengths of failed
// IP links are deprovisioned from the (healthy) fibers of their primary
// paths before computing free spectrum, since their transponders retune.
RwaResult solve_rwa(const topo::Network& net,
                    const std::vector<topo::FiberId>& cuts,
                    const RwaOptions& options = {});

// Greedy integral realization: first-fit slots for the requested number of
// waves per (link, path), respecting continuity and cross-link slot
// conflicts. Returns true (and fills assigned_slots) iff every request is
// met. Used both for ARROW-Naive and for LotteryTicket feasibility checks.
bool assign_slots_first_fit(const topo::Network& net,
                            const std::vector<topo::FiberId>& cuts,
                            std::vector<LinkRestoration>& links,
                            const std::vector<std::vector<int>>& want_waves);

}  // namespace arrow::optical
