// TE solution: per-flow admitted bandwidth, per-tunnel allocations, and (for
// ARROW) the per-scenario restoration plan the evaluator needs.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/solve_work.h"
#include "topo/network.h"

namespace arrow::te {

class TeInput;

// The SolveWork base sums the solver work of EVERY solve behind this
// solution: Phase I master rounds, per-scenario sub-LPs and Phase II.
struct TeSolution : obs::SolveWork {
  std::string scheme;
  bool optimal = false;
  double objective = 0.0;       // scheme-specific (throughput or CVaR)
  double solve_seconds = 0.0;   // optimization solve time only (Fig. 15)
  int bb_nodes_hint = 0;        // branch-and-bound nodes (ILP schemes only)

  std::vector<double> admitted;              // b_f per flow (if modelled)
  std::vector<std::vector<double>> alloc;    // a_{f,t} Gbps per flow, tunnel

  // Restoration plan (ARROW / ARROW-Naive only): per scenario index, the
  // restored capacity of each failed IP link under the winning ticket.
  std::vector<std::map<topo::IpLinkId, double>> restored;
  // Winning LotteryTicket index per scenario (-1 when not applicable).
  std::vector<int> winner;

  // Traffic splitting ratios omega_{f,t} = a_{f,t} / sum_t a_{f,t} (§3.3).
  std::vector<std::vector<double>> splitting_ratios() const;

  double total_admitted() const {
    double t = 0.0;
    for (double b : admitted) t += b;
    return t;
  }
};

}  // namespace arrow::te
