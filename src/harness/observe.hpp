// Observation plumbing for the experiment harness (DESIGN.md section 9):
// the telemetry bundle a run publishes into, the run-manifest JSON behind
// --metrics-out, and the Perfetto trace behind --trace-out.
//
// One Observation serves both a single run and a whole sweep: run_sweep
// merges each seed's metrics into it in seed order (so a --jobs 4 sweep
// writes the byte-identical manifest a --jobs 1 sweep does) and keeps the
// first seed's event log as the representative trace.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "sim/audit.hpp"
#include "trace/event_log.hpp"

namespace mnp::harness {

/// Build stamp (CMake `git describe`): the provenance string the run
/// manifest carries and the fleet service serves from GET /version.
const char* build_git_describe();

/// One live-progress sample of an in-flight run (Observation::on_progress).
struct RunProgress {
  sim::Time sim_time = 0;
  std::size_t completed_nodes = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
};

/// Telemetry captured for one observed run (or merged over a sweep).
struct Observation {
  /// `trace_capacity` bounds the event ring; events beyond it are evicted
  /// FIFO and surface as "dropped_events" in both JSON outputs (never
  /// silently — see EventLog::dropped). The ring only allocates as events
  /// arrive, so the default is sized for the repo's largest figure run
  /// (20x20 grid, 5 segments: ~1.75M events) with ample headroom.
  explicit Observation(std::size_t trace_capacity = std::size_t{1} << 22)
      : log(trace_capacity) {}

  obs::MetricsRegistry metrics;
  trace::EventLog log;
  /// Capture the trace side (event log + counter samples); metrics are
  /// always collected. Sweeps trace only their first seed.
  bool with_trace = true;
  /// Cadence of the per-node cumulative-energy counter samples fed into
  /// the trace (0 disables sampling).
  sim::Time energy_sample_interval = sim::sec(10);
  /// Counter tracks assembled by run_experiment: per-node energy plus the
  /// per-minute message-class rates under a virtual "network" process.
  std::vector<obs::CounterSeries> counters;
  /// Node count of the observed network (run_experiment fills it in; the
  /// trace track layout needs it).
  std::size_t node_count = 0;
  /// Live-progress hook (fleet-service metric streaming): when set and
  /// `progress_interval` > 0, run_experiment samples completion state on
  /// that cadence from inside the simulation, exactly like the energy
  /// sampler — the callback reads counters only and never touches an RNG,
  /// so a streamed run's protocol trajectory (and its exported metrics)
  /// stays bit-identical to an unstreamed one. Called on the thread
  /// running the simulation.
  std::function<void(const RunProgress&)> on_progress;
  sim::Time progress_interval = 0;
  /// Run the determinism auditor (DESIGN.md section 12): the scheduler
  /// records a state hash per executed event into `audit`. Off by default;
  /// audited runs pay one node-digest sweep per event.
  bool with_audit = false;
  sim::Audit audit;
};

/// Writes the Perfetto/Chrome trace-event JSON for an observed run.
void write_trace_json(std::ostream& os, const Observation& observation);

/// Writes the audit log behind --audit-out: a "# mnp-audit v1" header, one
/// meta line (seed, node count, tie-break, record count, final chain) and
/// one "rec <index> <time> <node> <pending> <nodes> <chain>" line per
/// executed event, hashes in fixed-width hex. `mnp_bisect` diffs two of
/// these to locate the first diverging event.
void write_audit_log(std::ostream& os, const ExperimentConfig& cfg,
                     const Observation& observation);

/// Writes the run-manifest JSON: schema_version, git describe, the
/// experiment configuration, the seed range, dropped_events and the full
/// metrics snapshot. Deterministic: fixed key order, fixed number
/// formats, metrics sorted by name.
void write_run_manifest(std::ostream& os, const ExperimentConfig& cfg,
                        std::uint64_t first_seed, std::size_t runs,
                        const Observation& observation);

/// Shared --trace-out/--metrics-out/--audit-out handling for mnp_sim_cli and
/// mnp_paper.
struct ObsCli {
  std::string trace_path;
  std::string metrics_path;
  std::string audit_path;

  /// Consumes "--trace-out PATH", "--metrics-out PATH" or
  /// "--audit-out PATH" at argv[i]; returns true (with `i` advanced past
  /// the value) when matched.
  bool parse_arg(int argc, char** argv, int& i);
  bool enabled() const {
    return !trace_path.empty() || !metrics_path.empty() || !audit_path.empty();
  }
  /// The run must enable Observation::with_audit when an audit log was
  /// requested.
  bool wants_audit() const { return !audit_path.empty(); }

  /// Writes whichever files were requested. Returns false (after a
  /// message on stderr) when a file cannot be opened.
  bool write(const ExperimentConfig& cfg, std::uint64_t first_seed,
             std::size_t runs, const Observation& observation) const;
};

}  // namespace mnp::harness
