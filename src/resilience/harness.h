// Fault-drill harness: glue between the FaultInjector and run_controller.
//
// A drill is one controller run under a seeded fault regime:
//
//   * the traffic matrices are perturbed before the controller sees them;
//   * every LP solve inside the run can be forced to fail (the controller's
//     degradation ladder has to absorb it);
//   * restoration plans can be dropped or delayed via the controller's
//     fault hooks;
//   * the failure trace can be spiked with concurrent double-cuts and
//     unplanned cuts that exercise the emergency-restoration path.
//
// Everything derives from FaultConfig::seed — re-running a drill with the
// same inputs reproduces the exact ControllerReport.
#pragma once

#include <vector>

#include "controller/controller.h"
#include "resilience/fault.h"

namespace arrow::resilience {

struct DoubleCutParams {
  int pairs = 1;          // concurrent double-cuts to add
  double gap_s = 60.0;    // second cut lands this long after the first
  double repair_s = 4.0 * 3600.0;  // repair time for the injected cuts
};

// Appends `pairs` concurrent double-cuts to `trace`: two distinct fibers
// cut gap_s apart with overlapping repair windows, at times uniform over
// the horizon. The trace is re-sorted by time. Deterministic given rng.
void inject_double_cuts(std::vector<ctrl::FailureEvent>& trace,
                        const topo::Network& net, double horizon_s,
                        const DoubleCutParams& params, util::Rng& rng);

// Copy of `config` with the injector's plan-drop / plan-delay faults wired
// into the controller's restoration hooks. The injector must outlive the
// controller run that uses the returned config.
ctrl::ControllerConfig with_fault_hooks(ctrl::ControllerConfig config,
                                        FaultInjector& injector);

struct FaultedRun {
  ctrl::ControllerReport report;
  FaultCounts counts;  // injector tallies for this run
};

// One full drill: perturb the matrices, install the LP-fault observer, wire
// the plan hooks, run the controller. Never throws for solver-level faults
// — that is the property under test.
FaultedRun run_with_faults(const topo::Network& net,
                           const std::vector<traffic::TrafficMatrix>& tms,
                           const std::vector<ctrl::FailureEvent>& failures,
                           const ctrl::ControllerConfig& config,
                           const FaultConfig& faults, util::Rng& rng);

}  // namespace arrow::resilience
