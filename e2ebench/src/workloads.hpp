// Benchmark workloads: the experiment configs one sample runs, generated
// from the workload seed, plus the per-sample correctness checks and the
// canonical RunResult encoding the digest and fidelity checks compare.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "scenario/scenario.hpp"

namespace e2ebench {

/// The configs one sample of `workload` runs back to back (one for the MNP
/// workloads, three for baselines_20x20). Empty for an unknown name.
std::vector<mnp::harness::ExperimentConfig> workload_configs(
    const std::string& workload, std::uint64_t seed);

/// A side x side grid running `protocol` with a `segments`-segment image.
mnp::harness::ExperimentConfig grid_config(mnp::harness::Protocol protocol,
                                           std::size_t side,
                                           std::uint16_t segments,
                                           std::uint64_t seed);

/// Names accepted by workload_configs, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Seeded churn/mobility schedule for a rows x cols grid: a 20% crash wave
/// with a 45 s reboot, a 30 s top/bottom partition and ~5% of the non-base
/// nodes on waypoint moves.
mnp::scenario::Scenario churn_scenario(std::size_t rows, std::size_t cols,
                                       double spacing_ft, std::uint64_t seed);

/// Canonical byte encoding of every RunResult field: per-node results,
/// timeline, sender order, counts. Two results are identical exactly when
/// their encodings are.
std::string encode(const mnp::harness::RunResult& r);

/// FNV-1a 64 over `bytes`.
std::uint64_t fnv1a(const std::string& bytes);

/// Empty when `r` passes the per-sample correctness checks (every node
/// completed, every completed node image-verified, no scenario error);
/// otherwise a one-line description of the first failure.
std::string check_run(const mnp::harness::RunResult& r);

/// One-line JSON description of a config (what the sample ran).
std::string describe(const mnp::harness::ExperimentConfig& cfg);

}  // namespace e2ebench
