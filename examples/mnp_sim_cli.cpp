// mnp_sim_cli: run any dissemination experiment from the command line and
// optionally dump machine-readable CSVs.
//
//   mnp_sim_cli [config flags] [--seed N] [--scenario PATH] [--csv PREFIX]
//               [--quiet] [--runs N] [--jobs N]
//               [--trace-out PATH] [--metrics-out PATH] [--audit-out PATH]
//
// Config flags come from the one config schema (harness/config_schema.hpp)
// and are mnp_fleet's as well: --protocol, --mac, --tie-break, --rows,
// --cols, --spacing, --range, --disk-links, --program-id, --bytes,
// --segments, --max-sim-time-s, --boot-jitter-ms, --no-pipelining,
// --duty-cycle, --no-query-update and --battery-aware. --help lists their
// defaults.
//
// Examples:
//   mnp_sim_cli --rows 20 --cols 20 --segments 5            # the Fig.-8 run
//   mnp_sim_cli --protocol deluge --segments 2 --csv out/d  # CSVs for plots
//   mnp_sim_cli --runs 10 --jobs 4    # 10-seed sweep on 4 worker threads
//   mnp_sim_cli --trace-out run.json  # Perfetto trace (open in ui.perfetto.dev)
//   mnp_sim_cli --scenario examples/scenarios/churn_partition_mobility.scn
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "harness/config_schema.hpp"
#include "harness/csv.hpp"
#include "harness/experiment.hpp"
#include "harness/observe.hpp"
#include "harness/report.hpp"
#include "harness/sweep.hpp"
#include "scenario/scenario_parser.hpp"

namespace {

[[noreturn]] void usage(const char* self, int code = 2) {
  std::ostream& os = code == 0 ? std::cout : std::cerr;
  os << "usage: " << self << " [options]\n"
     << "  --seed N                         RNG seed (default 1)\n"
     << "  --scenario PATH                  fault-injection schedule (churn,\n"
     << "                                   partitions, mobility; see\n"
     << "                                   examples/scenarios/)\n"
     << "  --csv PREFIX                     write PREFIX.{nodes,timeline,summary}.csv\n"
     << "  --quiet                          summary only (no maps)\n"
     << "  --runs N                         sweep N seeds (starting at --seed)\n"
     << "  --jobs N                         sweep worker threads (default: \n"
     << "                                   MNP_SWEEP_JOBS, else 1; results\n"
     << "                                   are identical for any N)\n"
     << "  --trace-out PATH                 write a Perfetto/Chrome trace JSON\n"
     << "                                   (sweeps trace the first seed)\n"
     << "  --metrics-out PATH               write the run-manifest JSON\n"
     << "                                   (config, seeds, metrics snapshot)\n"
     << "  --audit-out PATH                 run the determinism auditor and\n"
     << "                                   write its state-hash log (diff two\n"
     << "                                   with mnp_bisect)\n"
     << "  --help                           this text\n";
  mnp::harness::write_config_usage(os);
  std::exit(code);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mnp;
  harness::ExperimentConfig cfg;
  harness::ObsCli obs_cli;
  std::string csv_prefix;
  bool quiet = false;
  std::uint64_t runs = 1;
  std::uint64_t jobs = 0;  // 0 = resolve via MNP_SWEEP_JOBS

  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  auto need_uint = [&](int& i, std::uint64_t* out) {
    const char* flag = argv[i];
    const char* value = need_value(i);
    if (!harness::parse_uint_text(value, out)) {
      std::cerr << flag << ": invalid value '" << value << "'\n";
      std::exit(2);
    }
  };

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::string error;
    switch (harness::apply_config_arg(cfg, argc, argv, i, nullptr, &error)) {
      case harness::ConfigArg::kApplied: continue;
      case harness::ConfigArg::kInvalid:
        std::cerr << error << "\n";
        return 2;
      case harness::ConfigArg::kNotConfig: break;
    }
    if (!std::strcmp(arg, "--seed")) {
      need_uint(i, &cfg.seed);
    } else if (!std::strcmp(arg, "--scenario")) {
      const auto parsed = scenario::load_scenario_file(need_value(i));
      if (!parsed.ok) {
        std::cerr << "--scenario: " << parsed.error << "\n";
        return 2;
      }
      cfg.scenario = parsed.scenario;
    } else if (!std::strcmp(arg, "--csv")) {
      csv_prefix = need_value(i);
    } else if (!std::strcmp(arg, "--quiet")) {
      quiet = true;
    } else if (!std::strcmp(arg, "--runs")) {
      need_uint(i, &runs);
    } else if (!std::strcmp(arg, "--jobs")) {
      need_uint(i, &jobs);
    } else if (!std::strcmp(arg, "--help")) {
      usage(argv[0], 0);
    } else if (obs_cli.parse_arg(argc, argv, i)) {
      // --trace-out / --metrics-out / --audit-out consumed.
    } else {
      usage(argv[0]);
    }
  }

  const std::string title = std::string(harness::protocol_name(cfg.protocol)) +
                            " " + std::to_string(cfg.rows) + "x" +
                            std::to_string(cfg.cols);

  if (runs > 1) {
    harness::SweepOptions options;
    options.jobs = jobs;
    harness::Observation observation;
    observation.with_audit = obs_cli.wants_audit();
    if (obs_cli.enabled()) options.observe = &observation;
    const auto sweep = harness::run_sweep(cfg, runs, cfg.seed, options);
    if (obs_cli.enabled() &&
        !obs_cli.write(cfg, cfg.seed, runs, observation)) {
      return 1;
    }
    std::cout << "=== " << title << " sweep: " << runs << " seeds (first "
              << cfg.seed << "), " << harness::resolve_sweep_jobs(jobs)
              << " job(s) ===\n\n";
    std::cout << "runs fully completed: " << sweep.fully_completed_runs << "/"
              << sweep.runs << "\n";
    std::cout << "completion time (s): "
              << harness::format_stat(sweep.completion_s) << "\n";
    std::cout << "avg ART (s):         "
              << harness::format_stat(sweep.avg_art_s) << "\n";
    std::cout << "msgs/node:           "
              << harness::format_stat(sweep.avg_msgs) << "\n";
    std::cout << "collisions:          "
              << harness::format_stat(sweep.collisions, 0) << "\n";
    std::cout << "energy/node (nAh):   "
              << harness::format_stat(sweep.energy_per_node_nah, 0) << "\n";
    return sweep.fully_completed_runs == sweep.runs ? 0 : 1;
  }

  harness::Observation observation;
  observation.with_audit = obs_cli.wants_audit();
  const auto result = harness::run_experiment(
      cfg, obs_cli.enabled() ? &observation : nullptr);
  if (!result.scenario_error.empty()) return 2;
  if (obs_cli.enabled() && !obs_cli.write(cfg, cfg.seed, 1, observation)) {
    return 1;
  }
  harness::print_summary(std::cout, title.c_str(), result);
  if (!cfg.scenario.empty()) {
    std::cout << "scenario '" << cfg.scenario.name() << "': "
              << result.scenario_injected << " injected event(s), "
              << result.dead_nodes << " node(s) dead at end\n";
  }
  if (!quiet) {
    std::cout << "\n";
    harness::print_parent_map(std::cout, result, cfg.base);
    std::cout << "\n";
    harness::print_sender_order(std::cout, result);
    std::cout << "\n";
    harness::print_active_radio(std::cout, result);
  }
  if (!csv_prefix.empty()) {
    std::ofstream nodes(csv_prefix + ".nodes.csv");
    harness::write_nodes_csv(nodes, result);
    std::ofstream timeline(csv_prefix + ".timeline.csv");
    harness::write_timeline_csv(timeline, result);
    std::ofstream summary(csv_prefix + ".summary.csv");
    harness::write_summary_csv(summary, title.c_str(), result);
    std::cout << "\nCSV written to " << csv_prefix << ".{nodes,timeline,summary}.csv\n";
  }
  return result.all_completed ? 0 : 1;
}
