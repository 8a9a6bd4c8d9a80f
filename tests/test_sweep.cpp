// Tests for the multi-seed sweep harness.
#include <gtest/gtest.h>

#include <string>

#include "harness/sweep.hpp"

namespace mnp::harness {
namespace {

ExperimentConfig tiny() {
  ExperimentConfig cfg;
  cfg.rows = 3;
  cfg.cols = 3;
  cfg.range_ft = 25.0;
  cfg.set_program_segments(1);
  cfg.max_sim_time = sim::hours(1);
  return cfg;
}

TEST(Sweep, AggregatesAcrossSeeds) {
  const auto sweep = run_sweep(tiny(), 4, /*first_seed=*/50);
  EXPECT_EQ(sweep.runs, 4u);
  EXPECT_EQ(sweep.fully_completed_runs, 4u);
  EXPECT_EQ(sweep.completion_s.count(), 4u);
  EXPECT_GT(sweep.completion_s.mean(), 0.0);
  EXPECT_GE(sweep.completion_s.max(), sweep.completion_s.min());
  EXPECT_GT(sweep.avg_msgs.mean(), 0.0);
  EXPECT_GT(sweep.energy_per_node_nah.mean(), 0.0);
  EXPECT_GE(sweep.effective_senders.min(), 1.0);
  EXPECT_TRUE(sweep.raw.empty());  // keep_raw defaults off
}

TEST(Sweep, SeedsActuallyVaryTheRuns) {
  const auto sweep = run_sweep(tiny(), 5, 10);
  // Stochastic system: not every seed can give the same completion time.
  EXPECT_GT(sweep.completion_s.stddev(), 0.0);
}

TEST(Sweep, KeepRawRetainsResults) {
  const auto sweep = run_sweep(tiny(), 3, 1, /*keep_raw=*/true);
  ASSERT_EQ(sweep.raw.size(), 3u);
  for (const auto& r : sweep.raw) {
    EXPECT_TRUE(r.all_completed);
    EXPECT_EQ(r.nodes.size(), 9u);
  }
}

TEST(Sweep, SameSeedRangeIsDeterministic) {
  const auto a = run_sweep(tiny(), 3, 7);
  const auto b = run_sweep(tiny(), 3, 7);
  EXPECT_DOUBLE_EQ(a.completion_s.mean(), b.completion_s.mean());
  EXPECT_DOUBLE_EQ(a.avg_msgs.mean(), b.avg_msgs.mean());
}

void expect_stats_identical(const util::RunningStats& a,
                            const util::RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());  // bitwise: same accumulation order
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.stddev(), b.stddev());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

void expect_runs_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.all_completed, b.all_completed);
  EXPECT_EQ(a.completed_count, b.completed_count);
  EXPECT_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.measured_at, b.measured_at);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.bulk_overlaps, b.bulk_overlaps);
  EXPECT_EQ(a.sender_order, b.sender_order);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].completion, b.nodes[i].completion);
    EXPECT_EQ(a.nodes[i].active_radio, b.nodes[i].active_radio);
    EXPECT_EQ(a.nodes[i].parent, b.nodes[i].parent);
    EXPECT_EQ(a.nodes[i].tx_total, b.nodes[i].tx_total);
    EXPECT_EQ(a.nodes[i].rx_total, b.nodes[i].rx_total);
    EXPECT_EQ(a.nodes[i].eeprom_writes, b.nodes[i].eeprom_writes);
    EXPECT_EQ(a.nodes[i].energy_nah, b.nodes[i].energy_nah);
    EXPECT_EQ(a.nodes[i].image_verified, b.nodes[i].image_verified);
  }
}

TEST(Sweep, ParallelJobsBitIdenticalToSequential) {
  // The headline determinism claim: a parallel sweep must produce the same
  // bytes as a sequential one — every aggregate stat and every raw run.
  SweepOptions sequential;
  sequential.jobs = 1;
  sequential.keep_raw = true;
  const auto a = run_sweep(tiny(), 6, /*first_seed=*/20, sequential);

  for (const std::size_t jobs : {2u, 4u}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    SweepOptions parallel;
    parallel.jobs = jobs;
    parallel.keep_raw = true;
    // Exercise the real thread pool even on a 1-core CI host, where the
    // oversubscription clamp would otherwise fall back to sequential.
    parallel.allow_oversubscribe = true;
    const auto b = run_sweep(tiny(), 6, /*first_seed=*/20, parallel);

    EXPECT_EQ(a.runs, b.runs);
    EXPECT_EQ(a.fully_completed_runs, b.fully_completed_runs);
    expect_stats_identical(a.completion_s, b.completion_s);
    expect_stats_identical(a.avg_art_s, b.avg_art_s);
    expect_stats_identical(a.avg_art_post_adv_s, b.avg_art_post_adv_s);
    expect_stats_identical(a.avg_msgs, b.avg_msgs);
    expect_stats_identical(a.collisions, b.collisions);
    expect_stats_identical(a.bulk_overlaps, b.bulk_overlaps);
    expect_stats_identical(a.energy_per_node_nah, b.energy_per_node_nah);
    expect_stats_identical(a.effective_senders, b.effective_senders);
    ASSERT_EQ(a.raw.size(), b.raw.size());
    for (std::size_t i = 0; i < a.raw.size(); ++i) {
      expect_runs_identical(a.raw[i], b.raw[i]);
    }
  }
}

TEST(Sweep, MoreJobsThanRunsIsFine) {
  SweepOptions options;
  options.jobs = 16;
  options.allow_oversubscribe = true;
  const auto sweep = run_sweep(tiny(), 2, 1, options);
  EXPECT_EQ(sweep.runs, 2u);
  EXPECT_EQ(sweep.fully_completed_runs, 2u);
}

TEST(Sweep, EffectiveJobsClampsToHardwareConcurrency) {
  // "auto" on a 1-core host used to spin up 2-4 workers and run *slower*
  // than sequential. The clamp caps workers at the core count...
  EXPECT_EQ(effective_sweep_jobs(4, 100, /*hardware=*/1, false), 1u);
  EXPECT_EQ(effective_sweep_jobs(8, 100, /*hardware=*/4, false), 4u);
  // ...without inflating a smaller request,
  EXPECT_EQ(effective_sweep_jobs(2, 100, /*hardware=*/8, false), 2u);
  // never exceeds the number of runs,
  EXPECT_EQ(effective_sweep_jobs(4, 3, /*hardware=*/8, false), 3u);
  // treats degenerate inputs as sequential,
  EXPECT_EQ(effective_sweep_jobs(0, 100, /*hardware=*/0, false), 1u);
  // and is bypassed entirely when oversubscription is explicitly allowed
  // (still clamped to runs — extra workers would just find no work).
  EXPECT_EQ(effective_sweep_jobs(4, 100, /*hardware=*/1, true), 4u);
  EXPECT_EQ(effective_sweep_jobs(16, 2, /*hardware=*/1, true), 2u);
}

TEST(Sweep, ResolveJobsPassesExplicitValueThrough) {
  EXPECT_EQ(resolve_sweep_jobs(3), 3u);
  // 0 with no env var set means sequential.
  unsetenv("MNP_SWEEP_JOBS");
  EXPECT_EQ(resolve_sweep_jobs(0), 1u);
  setenv("MNP_SWEEP_JOBS", "5", 1);
  EXPECT_EQ(resolve_sweep_jobs(0), 5u);
  setenv("MNP_SWEEP_JOBS", "auto", 1);
  EXPECT_GE(resolve_sweep_jobs(0), 1u);
  setenv("MNP_SWEEP_JOBS", "nonsense", 1);
  EXPECT_EQ(resolve_sweep_jobs(0), 1u);
  unsetenv("MNP_SWEEP_JOBS");
}

TEST(Sweep, FormatStat) {
  util::RunningStats s;
  s.add(1.0);
  s.add(3.0);
  const std::string out = format_stat(s, 1);
  EXPECT_EQ(out, "2.0 +/- 1.0 [1.0, 3.0]");
}

}  // namespace
}  // namespace mnp::harness
