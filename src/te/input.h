// Common input to every TE formulation (paper Table 1): flows, tunnels,
// link capacities, failure scenarios, plus the derived caches shared by
// ECMP/FFC/TeaVaR/ARROW/ReWeave: the link -> tunnel incidence index and the
// per-scenario residual-tunnel flags, failed links and affected flows.
#pragma once

#include <vector>

#include "scenario/scenario.h"
#include "topo/network.h"
#include "traffic/traffic.h"

namespace arrow::te {

struct Flow {
  topo::SiteId src = -1;
  topo::SiteId dst = -1;
  double demand_gbps = 0.0;
};

struct Tunnel {
  std::vector<topo::IpLinkId> links;
};

struct TunnelParams {
  int tunnels_per_flow = 8;  // paper: 8 (B4), 12 (IBM), 16 (Facebook)
  // Seed the tunnel set with greedily fiber-disjoint paths before filling
  // with k-shortest paths (§6 "Tunnel selection").
  bool fiber_disjoint_first = true;
  // Extend the §6 residual-tunnel guarantee to ALL double fiber cuts (not
  // just the probabilistic scenario set): required for FFC-2's zero-loss
  // guarantee to be non-vacuous. Quadratic in fibers — enable for the small
  // WANs (B4/IBM), leave off for FBsynth-scale topologies.
  bool cover_double_cuts = false;
};

class TeInput {
 public:
  // Builds flows from the traffic matrix and selects tunnels on the IP graph.
  TeInput(const topo::Network& net, const traffic::TrafficMatrix& tm,
          const std::vector<scenario::Scenario>& scenarios,
          const TunnelParams& params = {});

  const topo::Network& net() const { return *net_; }
  const std::vector<Flow>& flows() const { return flows_; }
  const std::vector<std::vector<Tunnel>>& tunnels() const { return tunnels_; }
  const std::vector<scenario::Scenario>& scenarios() const {
    return scenarios_;
  }

  int num_flows() const { return static_cast<int>(flows_.size()); }
  int num_scenarios() const { return static_cast<int>(scenarios_.size()); }

  // One entry of the inverted link -> tunnel incidence index.
  struct LinkTunnel {
    int flow = -1;
    int ti = -1;    // tunnel index within the flow
    int flat = -1;  // flattened tunnel index (tunnel_index(flow, ti))
  };

  // Tunnels traversing IP link e (L[t,e] of Table 1), in (flow, ti) order,
  // each listed once even when it revisits e. Per-link model-build loops
  // cost O(tunnels on e) instead of O(F * T) probes.
  const std::vector<LinkTunnel>& tunnels_on_link(topo::IpLinkId e) const {
    return on_link_[static_cast<std::size_t>(e)];
  }

  // Is tunnel (f, ti) unaffected by scenario q (all links survive)?
  bool tunnel_alive(int f, int ti, int q) const {
    return alive_[static_cast<std::size_t>(q)]
                 [static_cast<std::size_t>(tunnel_index(f, ti))];
  }

  // IP links failed under scenario q.
  const std::vector<topo::IpLinkId>& failed_links(int q) const {
    return failed_links_[static_cast<std::size_t>(q)];
  }

  // Flows with at least one dead tunnel under scenario q (the only flows
  // needing scenario rows in the LPs).
  const std::vector<int>& affected_flows(int q) const {
    return affected_flows_[static_cast<std::size_t>(q)];
  }

  // Replace demands (for demand-scaling sweeps) keeping tunnels/caches.
  void set_demands(const traffic::TrafficMatrix& tm);
  void scale_demands(double factor);

  double total_demand() const;

  int tunnel_index(int f, int ti) const {
    return tunnel_base_[static_cast<std::size_t>(f)] + ti;
  }
  int total_tunnels() const { return total_tunnels_; }

 private:
  void build_caches();

  const topo::Network* net_;
  std::vector<Flow> flows_;
  std::vector<std::vector<Tunnel>> tunnels_;
  std::vector<scenario::Scenario> scenarios_;

  std::vector<int> tunnel_base_;  // flow -> flattened tunnel index base
  int total_tunnels_ = 0;
  std::vector<std::vector<LinkTunnel>> on_link_;  // [ip link] -> tunnels
  std::vector<std::vector<char>> alive_;       // [scenario][flat tunnel]
  std::vector<std::vector<topo::IpLinkId>> failed_links_;  // [scenario]
  std::vector<std::vector<int>> affected_flows_;           // [scenario]
};

}  // namespace arrow::te
