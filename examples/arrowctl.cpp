// arrowctl — command-line front end for running ARROW on your own network.
//
//   arrowctl export <b4|ibm|fbsynth|testbed> <net.topo> [traffic.tm]
//       write a built-in topology (and a gravity traffic matrix) to files,
//       as a starting point for editing
//   arrowctl ratio <net.topo>
//       restoration-ratio analysis over all single fiber cuts (§2.3)
//   arrowctl latency <net.topo> <fiber_id> [--legacy]
//       cut a fiber, plan restoration (RWA ILP), replay the reconfiguration
//   arrowctl te <net.topo> <traffic.tm> [scale] [--schemes a,b,c]
//                [--obs <dir>]
//       race TE schemes and report per-scheme availability at the given
//       demand scale. --schemes picks entrants by registry name (default:
//       ARROW, ARROW-Naive, FFC-1, TeaVaR, ECMP); schemes that support
//       localized repair are scored with their cut-time repairs applied.
//       --obs records trace spans and writes trace_te.json +
//       metrics_te.{prom,json} into <dir>
//   arrowctl run <net.topo> <traffic.tm> [--journal <dir>] [--budget <s>]
//                [--horizon <s>] [--cuts-per-day <n>] [--obs <dir>]
//       run the event-driven WAN controller: deadline-enforced TE periods,
//       sampled fiber cuts, optical restoration. With --journal the run is
//       crash-consistent (and recovers a previous run's last-good plan);
//       SIGTERM/SIGINT drain gracefully — the journal and final RunReport
//       are flushed before exit.
//   arrowctl serve (--socket <path> | --port <n>) [--topo <net.topo>]
//                  [--scheme <name>] [--budget <s>] [--journal <dir>]
//                  [--basis <dir>] [--obs <dir>]
//       resident controller daemon: newline-delimited JSON requests
//       (topology updates, traffic ticks, fiber cuts/repairs, queries) on a
//       Unix or loopback TCP socket, plus "GET /metrics" and "GET /report"
//       HTTP scrapes on the same socket. Protocol and SLO counters are
//       documented in docs/serving.md. SIGTERM/SIGINT drain: the journal is
//       closed, the shared basis store saved, and (with --obs) the final
//       RunReport written before exit.
//
// File formats are documented in src/topo/io.h.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include "controller/controller.h"
#include "obs/metrics.h"
#include "schemes/scheme.h"
#include "serve/engine.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "obs/trace.h"
#include "optical/latency.h"
#include "optical/restoration.h"
#include "sim/availability.h"
#include "sim/sweep.h"
#include "te/arrow.h"
#include "te/basic.h"
#include "te/ffc.h"
#include "te/teavar.h"
#include "topo/builders.h"
#include "topo/io.h"
#include "util/stats.h"
#include "util/table.h"

using namespace arrow;

namespace {

int usage() {
  std::fputs(
      "usage: arrowctl export <b4|ibm|fbsynth|testbed> <net.topo> [tm]\n"
      "       arrowctl ratio <net.topo>\n"
      "       arrowctl latency <net.topo> <fiber_id> [--legacy]\n"
      "       arrowctl te <net.topo> <traffic.tm> [scale]\n"
      "                    [--schemes a,b,c] [--obs <dir>]\n"
      "       arrowctl run <net.topo> <traffic.tm> [--journal <dir>]\n"
      "                    [--budget <s>] [--horizon <s>]\n"
      "                    [--cuts-per-day <n>] [--obs <dir>]\n"
      "       arrowctl serve (--socket <path> | --port <n>)\n"
      "                    [--topo <net.topo>] [--scheme <name>]\n"
      "                    [--budget <s>] [--journal <dir>] [--basis <dir>]\n"
      "                    [--obs <dir>]\n",
      stderr);
  return 2;
}

// SIGTERM/SIGINT flag for `arrowctl run`: the handler only sets this; the
// controller polls it between matrix solves (ControllerConfig::cancel) and
// drains gracefully — journal end_run and the final RunReport still happen
// on the normal exit path.
volatile std::sig_atomic_t g_stop_requested = 0;

void handle_stop_signal(int) { g_stop_requested = 1; }

int cmd_export(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string which = argv[2];
  const topo::Network net = which == "b4"        ? topo::build_b4()
                            : which == "ibm"     ? topo::build_ibm()
                            : which == "testbed" ? topo::build_testbed()
                            : which == "fbsynth" ? topo::build_fbsynth()
                                                 : topo::Network{};
  if (net.num_sites == 0) return usage();
  topo::save_network_file(net, argv[3]);
  std::printf("wrote %s (%d sites, %zu fibers, %zu IP links)\n", argv[3],
              net.num_sites, net.optical.fibers.size(), net.ip_links.size());
  if (argc > 4) {
    util::Rng rng(1);
    traffic::TrafficParams tp;
    tp.num_matrices = 1;
    const auto ms = traffic::generate_traffic(net, tp, rng);
    topo::save_traffic_file(ms[0], argv[4]);
    std::printf("wrote %s (%zu demands, %.1f Tbps total)\n", argv[4],
                ms[0].demands.size(), ms[0].total_gbps() / 1000.0);
  }
  return 0;
}

int cmd_ratio(int argc, char** argv) {
  if (argc < 3) return usage();
  const topo::Network net = topo::load_network_file(argv[2]);
  const auto all = optical::analyze_all_single_cuts(net);
  util::Table table({"fiber", "provisioned (Gbps)", "restorable (Gbps)",
                     "ratio"});
  std::vector<double> ratios;
  for (const auto& c : all) {
    const double r = std::min(1.0, c.ratio());
    ratios.push_back(r);
    table.add_row({std::to_string(c.cuts[0]),
                   util::Table::num(c.provisioned_gbps, 0),
                   util::Table::num(c.restorable_gbps, 0),
                   util::Table::pct(r, 0)});
  }
  std::fputs(table.to_string().c_str(), stdout);
  const auto t = util::tally_around(ratios, 1.0, 1e-3);
  std::printf("fully restorable: %.0f%%, partially: %.0f%%, none: %.0f%%\n",
              100.0 * (t.equal + t.above),
              100.0 * (t.below - util::tally_around(ratios, 0.0, 1e-3).equal),
              100.0 * util::tally_around(ratios, 0.0, 1e-3).equal);
  return 0;
}

int cmd_latency(int argc, char** argv) {
  if (argc < 4) return usage();
  const topo::Network net = topo::load_network_file(argv[2]);
  const topo::FiberId fiber = std::atoi(argv[3]);
  const bool legacy = argc > 4 && std::strcmp(argv[4], "--legacy") == 0;

  optical::RwaOptions opt;
  opt.integer = true;
  const auto rwa = optical::solve_rwa(net, {fiber}, opt);
  const auto plan = optical::plan_from_restoration(net, rwa.links);
  optical::LatencyParams params;
  params.noise_loading = !legacy;
  util::Rng rng(7);
  const auto res = optical::simulate_restoration(net, {fiber}, plan, params,
                                                 rng);
  std::printf("cut fiber %d: lost %.0f Gbps, restored %.0f Gbps in %.1f s "
              "(%s, %d ROADMs, %d amplifiers)\n",
              fiber, res.lost_gbps, res.restored_gbps, res.total_s,
              legacy ? "legacy amplifiers" : "ASE noise loading",
              res.roadms_reconfigured, res.amplifiers_touched);
  for (const auto& p : res.timeline) {
    std::printf("  t=%8.1fs  %6.0f Gbps  %s\n", p.t_s, p.restored_gbps,
                p.event.c_str());
  }
  return 0;
}

// Splits a comma-separated --schemes value and validates every name against
// the registry, so a typo fails with the registered names instead of an LP
// trace.
bool parse_scheme_list(const std::string& arg,
                       std::vector<std::string>* out) {
  const auto& registry = schemes::Registry::global();
  std::size_t start = 0;
  while (start <= arg.size()) {
    std::size_t comma = arg.find(',', start);
    if (comma == std::string::npos) comma = arg.size();
    const std::string name = arg.substr(start, comma - start);
    if (!name.empty()) {
      if (!registry.contains(name)) {
        std::fprintf(stderr, "arrowctl te: %s\n",
                     registry.unknown_message(name).c_str());
        return false;
      }
      out->push_back(name);
    }
    start = comma + 1;
  }
  if (out->empty()) {
    std::fprintf(stderr, "arrowctl te: --schemes needs at least one name\n");
    return false;
  }
  return true;
}

int cmd_te(int argc, char** argv) {
  if (argc < 4) return usage();
  const topo::Network net = topo::load_network_file(argv[2]);
  const auto tm = topo::load_traffic_file(argv[3]);
  double scale = 0.5;
  std::string obs_dir;
  std::vector<std::string> scheme_names = {"ARROW", "ARROW-Naive", "FFC-1",
                                           "TeaVaR", "ECMP"};
  for (int i = 4; i < argc; ++i) {
    if (std::strcmp(argv[i], "--obs") == 0) {
      if (i + 1 >= argc) return usage();
      obs_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--schemes") == 0) {
      if (i + 1 >= argc) return usage();
      scheme_names.clear();
      if (!parse_scheme_list(argv[++i], &scheme_names)) return 2;
    } else {
      scale = std::atof(argv[i]);
    }
  }
  std::optional<obs::ScopedTraceEnable> trace_scope;
  if (!obs_dir.empty()) trace_scope.emplace(true);

  util::Rng rng(42);
  scenario::ScenarioParams sp;
  sp.probability_cutoff = net.num_sites > 20 ? 0.002 : 0.001;
  auto set = scenario::generate_scenarios(net, sp, rng);
  const auto scenarios = scenario::remove_disconnecting(net, set.scenarios);

  te::TunnelParams tun;
  tun.tunnels_per_flow = 6;
  te::TeInput input(net, tm, scenarios, tun);
  input.scale_demands(te::max_satisfiable_scale(input) * scale);
  std::printf("%d flows, %zu scenarios, demand at %.0f%% of saturation\n",
              input.num_flows(), scenarios.size(), 100.0 * scale);

  te::ArrowParams ap;
  ap.tickets.num_tickets = 8;
  const auto& registry = schemes::Registry::global();
  schemes::SchemeOptions options;
  options.arrow = ap;
  // The offline stage is only paid for when a selected scheme consumes it.
  bool needs_prepared = false;
  for (const auto& name : scheme_names) {
    if (registry.capabilities(name).needs_prepared) needs_prepared = true;
  }
  te::ArrowPrepared prepared;
  if (needs_prepared) prepared = te::prepare_arrow(input, ap, rng);

  util::Table table({"scheme", "throughput", "availability", "solve (s)"});
  for (const auto& name : scheme_names) {
    const auto scheme = registry.create(name, options);
    const te::TeSolution sol =
        scheme->solve(input, prepared, util::global_pool(), nullptr);
    if (!sol.optimal) {
      table.add_row({sol.scheme, "failed", "-", "-"});
      continue;
    }
    // Repair-capable schemes are scored under their cut-time repairs —
    // max-throughput TE plus localized repair is the whole proposition.
    sim::RepairStats repairs;
    const auto eval = scheme->capabilities().supports_local_repair
                          ? sim::evaluate_with_repairs(input, sol, *scheme,
                                                       &repairs)
                          : sim::evaluate(input, sol);
    table.add_row({sol.scheme, util::Table::pct(eval.throughput),
                   util::Table::pct(eval.availability, 4),
                   util::Table::num(sol.solve_seconds, 2)});
    if (repairs.cuts > 0) {
      std::printf("  %s: %lld cut-time repairs (%lld local, %lld global "
                  "fallbacks), %lld pivots\n",
                  sol.scheme.c_str(), repairs.cuts, repairs.local,
                  repairs.fallbacks, repairs.iterations);
    }
  }
  std::fputs(table.to_string().c_str(), stdout);

  if (!obs_dir.empty()) {
    const auto dump = [](const std::string& path, const std::string& body) {
      std::ofstream out(path, std::ios::trunc);
      out << body;
      return static_cast<bool>(out);
    };
    const bool ok =
        obs::write_chrome_trace(obs_dir + "/trace_te.json") &&
        dump(obs_dir + "/metrics_te.prom",
             obs::Registry::global().prometheus_text()) &&
        dump(obs_dir + "/metrics_te.json",
             obs::Registry::global().json_text());
    if (!ok) {
      std::fprintf(stderr, "arrowctl: failed to write obs files to %s\n",
                   obs_dir.c_str());
      return 1;
    }
    std::printf("wrote %s/trace_te.json and metrics_te.{prom,json} "
                "(%zu spans)\n",
                obs_dir.c_str(), obs::trace_span_count());
  }
  return 0;
}

int cmd_run(int argc, char** argv) {
  if (argc < 4) return usage();
  const topo::Network net = topo::load_network_file(argv[2]);
  const auto tm = topo::load_traffic_file(argv[3]);

  ctrl::ControllerConfig config;
  config.horizon_s = 2.0 * 3600.0;
  config.te_interval_s = 600.0;
  config.tunnels.tunnels_per_flow = 4;
  config.arrow.tickets.num_tickets = 4;
  config.scenarios.probability_cutoff = net.num_sites > 20 ? 0.004 : 0.002;
  double cuts_per_day = 4.0;
  for (int i = 4; i < argc; ++i) {
    const auto want_value = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "arrowctl run: %s needs a value\n", flag);
        return false;
      }
      return true;
    };
    if (std::strcmp(argv[i], "--journal") == 0) {
      if (!want_value("--journal")) return usage();
      config.journal_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--budget") == 0) {
      if (!want_value("--budget")) return usage();
      config.te_budget_s = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--horizon") == 0) {
      if (!want_value("--horizon")) return usage();
      config.horizon_s = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--cuts-per-day") == 0) {
      if (!want_value("--cuts-per-day")) return usage();
      cuts_per_day = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--obs") == 0) {
      if (!want_value("--obs")) return usage();
      config.obs.enabled = true;
      config.obs.dir = argv[++i];
      config.obs.run_id = "arrowctl";
    } else {
      return usage();
    }
  }

  // Graceful drain on SIGTERM/SIGINT: remaining periods are served by the
  // closed-form rungs and the run still completes its accounting.
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);
  config.cancel = [] { return g_stop_requested != 0; };

  util::Rng rng(42);
  auto failures =
      ctrl::sample_failure_trace(net, config.horizon_s, cuts_per_day, rng);
  std::printf("controller: horizon %.0fs, TE every %.0fs (budget %.0fs), "
              "%zu cuts%s%s\n",
              config.horizon_s, config.te_interval_s, config.te_budget_s,
              failures.size(),
              config.journal_dir.empty() ? "" : ", journal ",
              config.journal_dir.c_str());

  const auto report = ctrl::run_controller(net, {tm}, failures, config, rng);

  util::Table table({"metric", "value"});
  table.add_row({"availability", util::Table::pct(report.availability, 4)});
  table.add_row({"TE runs", std::to_string(report.te_runs)});
  table.add_row({"degraded periods", std::to_string(report.degraded_periods)});
  table.add_row(
      {"solver timeouts", std::to_string(report.solver_timeouts)});
  table.add_row({"cuts handled", std::to_string(report.cuts_handled)});
  table.add_row({"journal recovered",
                 report.journal_recovered ? "yes" : "no"});
  table.add_row({"journal writes", std::to_string(report.journal_writes)});
  table.add_row({"canceled", report.canceled ? "yes (drained)" : "no"});
  std::fputs(table.to_string().c_str(), stdout);
  for (int r = 0; r < ctrl::kNumRungs; ++r) {
    if (report.fallback_counts[r] == 0) continue;
    std::printf("  rung %-14s %d\n", to_string(static_cast<ctrl::Rung>(r)),
                report.fallback_counts[r]);
  }
  if (config.obs.enabled) {
    std::printf("wrote %s\n", config.obs.resolved().report_path().c_str());
  }
  return 0;
}

int cmd_serve(int argc, char** argv) {
  serve::EngineConfig config;
  std::string socket_path;
  std::string topo_path;
  int port = -1;
  for (int i = 2; i < argc; ++i) {
    const auto want_value = [&](const char* flag) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "arrowctl serve: %s needs a value\n", flag);
        return false;
      }
      return true;
    };
    if (std::strcmp(argv[i], "--socket") == 0) {
      if (!want_value("--socket")) return usage();
      socket_path = argv[++i];
    } else if (std::strcmp(argv[i], "--port") == 0) {
      if (!want_value("--port")) return usage();
      port = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--topo") == 0) {
      if (!want_value("--topo")) return usage();
      topo_path = argv[++i];
    } else if (std::strcmp(argv[i], "--scheme") == 0) {
      if (!want_value("--scheme")) return usage();
      config.ctrl.scheme = argv[++i];
      const auto& registry = schemes::Registry::global();
      if (!registry.contains(config.ctrl.scheme)) {
        std::fprintf(stderr, "arrowctl serve: %s\n",
                     registry.unknown_message(config.ctrl.scheme).c_str());
        return usage();
      }
    } else if (std::strcmp(argv[i], "--budget") == 0) {
      if (!want_value("--budget")) return usage();
      config.ctrl.te_budget_s = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--journal") == 0) {
      if (!want_value("--journal")) return usage();
      config.ctrl.journal_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--basis") == 0) {
      if (!want_value("--basis")) return usage();
      config.ctrl.basis_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--obs") == 0) {
      if (!want_value("--obs")) return usage();
      config.ctrl.obs.enabled = true;
      config.ctrl.obs.dir = argv[++i];
      config.ctrl.obs.run_id = "serve";
    } else {
      return usage();
    }
  }
  if (socket_path.empty() && port < 0) return usage();

  // Startup capability log: which cut fast path this daemon will take.
  const auto caps =
      schemes::Registry::global().capabilities(config.ctrl.scheme);
  std::printf("scheme %s: local repair %s\n", config.ctrl.scheme.c_str(),
              caps.supports_local_repair ? "on (cut fast path active)"
                                         : "off");

  serve::TickEngine engine(config);
  if (!topo_path.empty()) {
    const auto res = engine.set_topology(topo::load_network_file(topo_path));
    if (!res.ok) {
      std::fprintf(stderr, "arrowctl serve: %s\n", res.error.c_str());
      return 1;
    }
    std::printf("loaded %s (%d sites, %d fibers, %d scenarios)\n",
                topo_path.c_str(), res.sites, res.fibers, res.scenarios);
  }

  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);

  serve::ServerConfig sc;
  sc.unix_path = socket_path;
  sc.tcp_port = port;
  sc.stop_check = [] { return g_stop_requested != 0; };
  serve::Server server(engine, sc);
  if (!server.start()) {
    std::fprintf(stderr, "arrowctl serve: %s\n", server.error().c_str());
    return 1;
  }
  if (socket_path.empty()) {
    std::printf("listening on 127.0.0.1:%d (budget %.0f ms)\n", server.port(),
                1000.0 * config.ctrl.te_budget_s);
  } else {
    std::printf("listening on %s (budget %.0f ms)\n", socket_path.c_str(),
                1000.0 * config.ctrl.te_budget_s);
  }
  std::fflush(stdout);
  server.run();
  std::printf("drained: %d ticks, %d cuts, p99 tick %.1f ms\n", engine.ticks(),
              engine.report().cuts_handled, 1000.0 * engine.tick_p99_s());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "export") return cmd_export(argc, argv);
    if (cmd == "ratio") return cmd_ratio(argc, argv);
    if (cmd == "latency") return cmd_latency(argc, argv);
    if (cmd == "te") return cmd_te(argc, argv);
    if (cmd == "run") return cmd_run(argc, argv);
    if (cmd == "serve") return cmd_serve(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "arrowctl: %s\n", e.what());
    return 1;
  }
  return usage();
}
