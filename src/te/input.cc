#include "te/input.h"

#include <algorithm>
#include <map>
#include <set>

#include "optical/paths.h"
#include "util/check.h"

namespace arrow::te {

namespace {

optical::Graph ip_graph(const topo::Network& net) {
  std::vector<optical::Edge> edges;
  edges.reserve(net.ip_links.size());
  for (const auto& link : net.ip_links) {
    edges.push_back(optical::Edge{link.id, link.src, link.dst,
                                  net.ip_link_path_km(link.id)});
  }
  return optical::Graph(net.num_sites, std::move(edges));
}

// Tunnel selection: greedily fiber-disjoint shortest paths first, then
// k-shortest paths to fill, deduplicated.
std::vector<Tunnel> select_tunnels(const topo::Network& net,
                                   const optical::Graph& graph, int src,
                                   int dst, const TunnelParams& params) {
  std::vector<Tunnel> tunnels;
  std::set<std::vector<int>> seen;

  if (params.fiber_disjoint_first) {
    std::vector<char> banned(net.ip_links.size(), 0);
    std::set<topo::FiberId> used_fibers;
    while (static_cast<int>(tunnels.size()) < params.tunnels_per_flow) {
      const auto path = graph.shortest_path(src, dst, banned);
      if (path.empty()) break;
      tunnels.push_back(Tunnel{path});
      seen.insert(path);
      // Ban every IP link sharing a fiber with this tunnel.
      for (int e : path) {
        for (topo::FiberId f :
             net.ip_links[static_cast<std::size_t>(e)].fiber_path()) {
          used_fibers.insert(f);
        }
      }
      for (const auto& link : net.ip_links) {
        if (banned[static_cast<std::size_t>(link.id)]) continue;
        for (topo::FiberId f : link.fiber_path()) {
          if (used_fibers.count(f)) {
            banned[static_cast<std::size_t>(link.id)] = 1;
            break;
          }
        }
      }
    }
  }
  if (static_cast<int>(tunnels.size()) < params.tunnels_per_flow) {
    const auto ksp = graph.k_shortest_paths(
        src, dst, params.tunnels_per_flow + static_cast<int>(tunnels.size()));
    for (const auto& path : ksp) {
      if (static_cast<int>(tunnels.size()) >= params.tunnels_per_flow) break;
      if (seen.insert(path).second) tunnels.push_back(Tunnel{path});
    }
  }
  return tunnels;
}

}  // namespace

TeInput::TeInput(const topo::Network& net, const traffic::TrafficMatrix& tm,
                 const std::vector<scenario::Scenario>& scenarios,
                 const TunnelParams& params)
    : net_(&net), scenarios_(scenarios) {
  const optical::Graph graph = ip_graph(net);
  // Aggregate demands by (src, dst).
  std::map<std::pair<int, int>, double> agg;
  for (const auto& d : tm.demands) {
    if (d.gbps > 0.0) agg[{d.src, d.dst}] += d.gbps;
  }
  for (const auto& [key, gbps] : agg) {
    auto tunnels = select_tunnels(net, graph, key.first, key.second, params);
    if (tunnels.empty()) continue;  // disconnected pair: no TE can help
    flows_.push_back(Flow{key.first, key.second, gbps});
    tunnels_.push_back(std::move(tunnels));
  }

  // Residual-tunnel guarantee (§6 "Tunnel selection"): if some scenario
  // kills every tunnel of a flow but the IP layer still connects the pair,
  // add a survivor tunnel routed around the cuts.
  const auto cover_cuts = [&](const std::vector<topo::FiberId>& cuts) {
    const auto failed = net.failed_ip_links(cuts);
    if (failed.empty()) return;
    std::vector<char> down(net.ip_links.size(), 0);
    for (topo::IpLinkId e : failed) down[static_cast<std::size_t>(e)] = 1;
    for (std::size_t f = 0; f < flows_.size(); ++f) {
      bool any_alive = false;
      for (const auto& t : tunnels_[f]) {
        bool alive = true;
        for (int e : t.links) {
          if (down[static_cast<std::size_t>(e)]) {
            alive = false;
            break;
          }
        }
        if (alive) {
          any_alive = true;
          break;
        }
      }
      if (any_alive) continue;
      const auto detour =
          graph.shortest_path(flows_[f].src, flows_[f].dst, down);
      if (!detour.empty()) tunnels_[f].push_back(Tunnel{detour});
    }
  };
  for (const auto& s : scenarios_) cover_cuts(s.cuts);
  if (params.cover_double_cuts) {
    const auto nf = static_cast<int>(net.optical.fibers.size());
    for (int i = 0; i < nf; ++i) {
      cover_cuts({i});
      for (int j = i + 1; j < nf; ++j) cover_cuts({i, j});
    }
  }
  build_caches();
}

void TeInput::build_caches() {
  tunnel_base_.clear();
  total_tunnels_ = 0;
  for (const auto& ts : tunnels_) {
    tunnel_base_.push_back(total_tunnels_);
    total_tunnels_ += static_cast<int>(ts.size());
  }

  const auto num_links = net_->ip_links.size();
  on_link_.assign(num_links, {});
  for (std::size_t f = 0; f < tunnels_.size(); ++f) {
    for (std::size_t ti = 0; ti < tunnels_[f].size(); ++ti) {
      const int flat = tunnel_index(static_cast<int>(f), static_cast<int>(ti));
      for (int e : tunnels_[f][ti].links) {
        auto& on_e = on_link_[static_cast<std::size_t>(e)];
        // Tunnels are visited in flat order, so one revisiting e already
        // sits at the back: it is indexed once.
        if (!on_e.empty() && on_e.back().flat == flat) continue;
        on_e.push_back(
            LinkTunnel{static_cast<int>(f), static_cast<int>(ti), flat});
      }
    }
  }

  alive_.assign(scenarios_.size(),
                std::vector<char>(static_cast<std::size_t>(total_tunnels_), 1));
  failed_links_.assign(scenarios_.size(), {});
  affected_flows_.assign(scenarios_.size(), {});
  for (std::size_t q = 0; q < scenarios_.size(); ++q) {
    failed_links_[q] = net_->failed_ip_links(scenarios_[q].cuts);
    std::vector<char> link_failed(num_links, 0);
    for (int e : failed_links_[q]) {
      link_failed[static_cast<std::size_t>(e)] = 1;
    }
    for (std::size_t f = 0; f < tunnels_.size(); ++f) {
      bool any_dead = false;
      for (std::size_t ti = 0; ti < tunnels_[f].size(); ++ti) {
        const int flat = tunnel_index(static_cast<int>(f), static_cast<int>(ti));
        for (int e : tunnels_[f][ti].links) {
          if (link_failed[static_cast<std::size_t>(e)]) {
            alive_[q][static_cast<std::size_t>(flat)] = 0;
            any_dead = true;
            break;
          }
        }
      }
      if (any_dead) affected_flows_[q].push_back(static_cast<int>(f));
    }
  }
}

void TeInput::set_demands(const traffic::TrafficMatrix& tm) {
  std::map<std::pair<int, int>, double> agg;
  for (const auto& d : tm.demands) agg[{d.src, d.dst}] += d.gbps;
  for (auto& flow : flows_) {
    const auto it = agg.find({flow.src, flow.dst});
    flow.demand_gbps = it == agg.end() ? 0.0 : it->second;
  }
}

void TeInput::scale_demands(double factor) {
  ARROW_CHECK(factor >= 0.0, "negative demand scale");
  for (auto& flow : flows_) flow.demand_gbps *= factor;
}

double TeInput::total_demand() const {
  double t = 0.0;
  for (const auto& f : flows_) t += f.demand_gbps;
  return t;
}

}  // namespace arrow::te
