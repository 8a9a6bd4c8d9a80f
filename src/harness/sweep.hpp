// Multi-seed sweeps: every figure in the paper is a single run of a
// stochastic system; re-running across seeds gives the mean and spread
// (the authors note they "repeated our experiments several times" and saw
// similar results — this makes that check a first-class operation).
//
// Seeds are embarrassingly parallel — each run owns a private Simulator,
// RNG tree, network and stats — so the sweep can fan runs out over a
// worker pool. Aggregation always happens on the calling thread in seed
// order, which makes a parallel sweep *bit-identical* to a sequential one
// (same RunningStats accumulation sequence, same `raw` vector order).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "util/running_stats.hpp"

namespace mnp::harness {

struct SweepResult {
  std::size_t runs = 0;
  std::size_t fully_completed_runs = 0;

  util::RunningStats completion_s;
  util::RunningStats avg_art_s;
  util::RunningStats avg_art_post_adv_s;
  util::RunningStats avg_msgs;
  util::RunningStats collisions;
  util::RunningStats bulk_overlaps;
  util::RunningStats energy_per_node_nah;
  util::RunningStats effective_senders;

  /// Per-run raw results, in seed order, for custom statistics.
  std::vector<RunResult> raw;
};

struct SweepOptions {
  /// Worker threads running seeds. 0 resolves through MNP_SWEEP_JOBS (see
  /// resolve_sweep_jobs); 1 is the plain sequential path. Results are
  /// identical for every value — only wall-clock time changes.
  std::size_t jobs = 0;
  /// Retain each RunResult in SweepResult::raw (memory!).
  bool keep_raw = false;
  /// By default a sweep never runs more worker threads than the machine
  /// has cores — oversubscribing a simulator workload only adds context
  /// switches (measured *slower* than sequential on a 1-core host). Tests
  /// that need to exercise the thread pool regardless set this.
  bool allow_oversubscribe = false;
  /// When set, every run is observed: per-run metrics merge into
  /// observe->metrics on the calling thread in seed order (bit-identical
  /// output for any `jobs` value) and the first seed keeps its event log
  /// and counter tracks as the sweep's representative trace.
  Observation* observe = nullptr;
  /// When set, every run is audited (sim::Audit) and the final state-hash
  /// chain of each seed lands here in seed order — the same values for any
  /// `jobs` count, which is exactly what the determinism tests assert.
  /// Independent of `observe`; when both are set the first seed's full
  /// audit record stream also survives in observe->audit.
  std::vector<std::uint64_t>* audit_chains = nullptr;
};

/// Runs `cfg` once per seed in [first_seed, first_seed + runs) and
/// aggregates deterministically in seed order.
SweepResult run_sweep(ExperimentConfig cfg, std::size_t runs,
                      std::uint64_t first_seed, const SweepOptions& options);

/// Compatibility overload; honours MNP_SWEEP_JOBS, so callers without a
/// jobs knob pick up parallelism from the environment.
SweepResult run_sweep(ExperimentConfig cfg, std::size_t runs,
                      std::uint64_t first_seed = 1, bool keep_raw = false);

/// Resolves a jobs request: non-zero passes through; 0 consults the
/// MNP_SWEEP_JOBS environment variable ("auto" or "0" = hardware
/// concurrency, a number = that many workers, unset/garbage = 1).
std::size_t resolve_sweep_jobs(std::size_t requested);

/// Worker count run_sweep actually uses: the resolved request clamped to
/// `runs` and — unless `allow_oversubscribe` — to `hardware` threads.
/// Pure so tests can pin the clamp on any simulated core count.
std::size_t effective_sweep_jobs(std::size_t resolved, std::size_t runs,
                                 std::size_t hardware,
                                 bool allow_oversubscribe);

/// "mean +/- stddev [min, max]" rendering for bench tables.
std::string format_stat(const util::RunningStats& s, int precision = 1);

}  // namespace mnp::harness
