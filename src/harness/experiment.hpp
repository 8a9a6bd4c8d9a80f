// Experiment harness: builds a network, installs a protocol, runs the
// dissemination to completion (or a deadline), and extracts every metric
// the paper's evaluation section reports.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "baselines/deluge_node.hpp"
#include "baselines/moap_node.hpp"
#include "baselines/ncast_node.hpp"
#include "baselines/xnp_node.hpp"
#include "harness/metrics.hpp"
#include "mnp/mnp_config.hpp"
#include "mnp/program_image.hpp"
#include "net/channel.hpp"
#include "net/link_model.hpp"
#include "net/topology.hpp"
#include "scenario/scenario.hpp"
#include "sim/scheduler.hpp"

namespace mnp::harness {

enum class Protocol { kMnp, kDeluge, kMoap, kXnp, kNcast };

/// Medium access: TinyOS-style CSMA (the paper's implementation) or the
/// SS-TDMA slotted MAC its conclusion proposes pairing MNP with.
enum class MacType { kCsma, kTdma };

const char* protocol_name(Protocol p);

struct ExperimentConfig {
  Protocol protocol = Protocol::kMnp;

  // --- deployment -----------------------------------------------------
  std::size_t rows = 10;
  std::size_t cols = 10;
  double spacing_ft = 10.0;       // paper simulations: 10 ft grid
  net::NodeId base = 0;           // base station node index

  // --- medium access ------------------------------------------------------
  MacType mac = MacType::kCsma;
  /// TDMA slot length (must cover the longest packet's airtime + guard).
  sim::Time tdma_slot = sim::msec(30);

  // --- radio ------------------------------------------------------------
  double range_ft = 25.0;         // communication range (power level knob)
  double interference_factor = 1.6;
  bool empirical_links = true;    // false => ideal disk model
  double link_noise_stddev = 0.08;
  /// Channel mechanics (bitrate, neighbor cache). The default keeps the
  /// neighbor cache on; equivalence tests turn it off per run to diff
  /// against the brute-force oracle.
  net::Channel::Params channel;

  // --- program -----------------------------------------------------------
  std::uint16_t program_id = 7;
  std::size_t program_bytes = 5 * 128 * 22;  // 5 MNP segments (~14 KB)

  // --- run control -----------------------------------------------------
  std::uint64_t seed = 1;
  sim::Time max_sim_time = sim::hours(4);
  sim::Time boot_jitter = sim::msec(500);
  /// Same-timestamp event ordering. Production runs keep FIFO; the audit
  /// toolchain re-runs a seed under LIFO and diffs the state-hash streams
  /// to expose tie-break-sensitive protocol logic (DESIGN.md section 12).
  sim::TieBreak tie_break = sim::TieBreak::kFifo;

  // --- protocol knobs ------------------------------------------------------
  core::MnpConfig mnp;
  baselines::DelugeConfig deluge;
  baselines::MoapConfig moap;
  baselines::XnpConfig xnp;
  baselines::NcastConfig ncast;

  /// Battery-aware extension: per-node remaining-charge fractions
  /// (empty = everyone full). Only meaningful with mnp.battery_aware.
  std::vector<double> battery_levels;

  /// Fault-injection schedule (empty = fault-free run). A non-empty
  /// scenario wraps the link model in a ScenarioLinkModel, switches every
  /// protocol to journal its EEPROM progress (so rebooted nodes resume
  /// instead of restarting), and changes the run-end predicate to
  /// "schedule exhausted and every live node holds the image".
  scenario::Scenario scenario;

  // --- shared immutable assets (fleet-service fast path) ---------------
  /// Prebuilt grid to copy instead of calling Topology::grid per run (the
  /// per-run copy keeps scenario mobility private). Used only when it
  /// matches rows/cols/spacing_ft, so a stale pointer can never change
  /// what the config fields describe. Never part of the run manifest.
  std::shared_ptr<const net::Topology> shared_topology;
  /// Prebuilt program image, disseminated as-is instead of regenerating
  /// the deterministic content. Used only when id, size and segment
  /// geometry match the fields above.
  std::shared_ptr<const core::ProgramImage> shared_image;

  /// Convenience: size the program as N MNP segments.
  void set_program_segments(std::uint16_t segments) {
    program_bytes = static_cast<std::size_t>(segments) *
                    mnp.packets_per_segment * mnp.payload_bytes;
  }
};

/// Segment geometry run_experiment will build the ProgramImage with —
/// the per-protocol resolution (Deluge pages, NCast generations, MNP
/// segments). Exposed so asset caches can intern the identical image.
std::uint16_t image_packets_per_segment(const ExperimentConfig& cfg);
std::size_t image_payload_bytes(const ExperimentConfig& cfg);

/// Runs one dissemination to completion (all nodes hold the image) or to
/// config.max_sim_time / event exhaustion, whichever comes first.
RunResult run_experiment(const ExperimentConfig& config);

struct Observation;  // harness/observe.hpp

/// Observed variant: wires `observation` (metrics registry + event log)
/// into the network before boot and captures end-of-run energy gauges and
/// the trace counter tracks. A null observation is the plain run above.
RunResult run_experiment(const ExperimentConfig& config,
                         Observation* observation);

}  // namespace mnp::harness
