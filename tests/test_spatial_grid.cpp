// SpatialGrid unit tests, the incremental-repair property (repairing a
// dirty row after moves must equal a from-scratch rebuild), and harness
// level bit-identity of runs on the grid-backed cache vs. the brute-force
// neighbor_cache=false oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/sweep.hpp"
#include "net/channel.hpp"
#include "net/link_model.hpp"
#include "net/spatial_grid.hpp"
#include "net/topology.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"

namespace mnp {
namespace {

net::Topology random_topology(std::size_t n, double extent,
                              std::uint64_t seed) {
  sim::Rng rng(seed);
  net::Topology topo;
  for (std::size_t i = 0; i < n; ++i) {
    topo.add({rng.uniform_real(0.0, extent), rng.uniform_real(0.0, extent)});
  }
  return topo;
}

std::vector<net::NodeId> collect_near(const net::SpatialGrid& grid, double x,
                                      double y, double radius) {
  std::vector<net::NodeId> out;
  grid.for_each_near(x, y, radius, [&](net::NodeId id) { out.push_back(id); });
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SpatialGrid, QueryCoversEveryNodeWithinRadius) {
  const net::Topology topo = random_topology(200, 300.0, 17);
  net::SpatialGrid grid;
  grid.build(topo, 25.0);
  ASSERT_TRUE(grid.valid());
  sim::Rng probes(5);
  for (int q = 0; q < 50; ++q) {
    const double qx = probes.uniform_real(-20.0, 320.0);
    const double qy = probes.uniform_real(-20.0, 320.0);
    const auto got = collect_near(grid, qx, qy, 25.0);
    for (net::NodeId id = 0; id < topo.size(); ++id) {
      const double d = net::distance({qx, qy}, topo.position(id));
      if (d <= 25.0) {
        EXPECT_TRUE(std::binary_search(got.begin(), got.end(), id))
            << "node " << id << " at distance " << d << " missed";
      }
    }
  }
}

TEST(SpatialGrid, QueryNeverReportsANodeTwice) {
  const net::Topology topo = random_topology(100, 100.0, 3);
  net::SpatialGrid grid;
  grid.build(topo, 10.0);
  const auto got = collect_near(grid, 50.0, 50.0, 40.0);
  EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end());
}

TEST(SpatialGrid, MoveKeepsSnapshotAndQueriesConsistent) {
  net::Topology topo = random_topology(120, 200.0, 29);
  net::SpatialGrid grid;
  grid.build(topo, 20.0);
  sim::Rng rng(41);
  for (int step = 0; step < 200; ++step) {
    const auto id = static_cast<net::NodeId>(rng.uniform_int(0, 119));
    const net::Position to{rng.uniform_real(0.0, 200.0),
                           rng.uniform_real(0.0, 200.0)};
    topo.set_position(id, to);
    grid.move(id, to);
    EXPECT_DOUBLE_EQ(grid.x(id), to.x);
    EXPECT_DOUBLE_EQ(grid.y(id), to.y);
  }
  // After the churn every radius query still covers the true disc.
  for (int q = 0; q < 20; ++q) {
    const double qx = rng.uniform_real(0.0, 200.0);
    const double qy = rng.uniform_real(0.0, 200.0);
    const auto got = collect_near(grid, qx, qy, 20.0);
    for (net::NodeId id = 0; id < topo.size(); ++id) {
      if (net::distance({qx, qy}, topo.position(id)) <= 20.0) {
        EXPECT_TRUE(std::binary_search(got.begin(), got.end(), id));
      }
    }
  }
}

TEST(SpatialGrid, OccupancyStatisticsTrackTheLayout) {
  const net::Topology topo = net::Topology::grid(10, 10, 10.0);
  net::SpatialGrid grid;
  grid.build(topo, 10.0);
  EXPECT_GT(grid.cell_count(), 0u);
  EXPECT_LE(grid.cell_count(), 100u);
  EXPECT_GE(grid.max_occupancy(), 1u);
  // A 10 ft cell over a 10 ft grid holds at most the 4 nodes on its corners.
  EXPECT_LE(grid.max_occupancy(), 4u);
  grid.reset();
  EXPECT_FALSE(grid.valid());
  EXPECT_EQ(grid.cell_count(), 0u);
}

// --- the incremental-repair property --------------------------------------
//
// After any sequence of moves, a channel that repaired its rows through
// the dirty-marking protocol must hold exactly the rows a freshly built
// channel computes from the current world. This is the invariant the whole
// incremental design rests on; it is checked for every source at two power
// scales after every move.
TEST(IncrementalRepair, RepairedRowsMatchFromScratchRebuild) {
  constexpr std::size_t kNodes = 60;
  net::Topology topo = random_topology(kNodes, 200.0, 31);
  net::DiskLinkModel links(topo, 20.0, 1.4);
  sim::Simulator sim(5);
  net::Channel channel(sim, topo, links, net::Channel::Params{});
  // Materialize both scales so later moves exercise repair, not first-build.
  for (net::NodeId src = 0; src < kNodes; ++src) {
    channel.neighbor_row_for_test(1.0, src);
    channel.neighbor_row_for_test(0.5, src);
  }
  const std::uint64_t builds = channel.cache_repairs();
  EXPECT_EQ(builds, 2 * kNodes);

  sim::Rng rng(77);
  for (int step = 0; step < 40; ++step) {
    const auto mover = static_cast<net::NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(kNodes) - 1));
    topo.set_position(mover, {rng.uniform_real(0.0, 200.0),
                              rng.uniform_real(0.0, 200.0)});
    net::Channel fresh(sim, topo, links, net::Channel::Params{});
    for (const double scale : {1.0, 0.5}) {
      for (net::NodeId src = 0; src < kNodes; ++src) {
        EXPECT_EQ(channel.neighbor_row_for_test(scale, src),
                  fresh.neighbor_row_for_test(scale, src))
            << "step " << step << " scale " << scale << " src " << src;
      }
    }
  }
  // The repaired channel never rebuilt everything: far fewer rows were
  // touched than 40 moves x 2 scales x 60 rows would cost from scratch.
  EXPECT_GT(channel.cache_repairs(), builds);
  EXPECT_LT(channel.cache_repairs() - builds, 40ull * 2ull * kNodes);
}

// --- whole-run bit-identity: cached path vs. the brute-force oracle -------

harness::ExperimentConfig small_run(std::uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.rows = 4;
  cfg.cols = 4;
  cfg.set_program_segments(1);
  cfg.max_sim_time = sim::hours(2);
  cfg.seed = seed;
  return cfg;
}

harness::ExperimentConfig oracle(harness::ExperimentConfig cfg) {
  cfg.channel.neighbor_cache = false;
  return cfg;
}

// "Same bytes out", not "statistically similar": every field must match.
void expect_identical(const harness::RunResult& a, const harness::RunResult& b,
                      std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  EXPECT_EQ(a.all_completed, b.all_completed);
  EXPECT_EQ(a.completed_count, b.completed_count);
  EXPECT_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.bulk_overlaps, b.bulk_overlaps);
  EXPECT_EQ(a.sender_order, b.sender_order);
  EXPECT_EQ(a.timeline, b.timeline);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].completion, b.nodes[i].completion);
    EXPECT_EQ(a.nodes[i].active_radio, b.nodes[i].active_radio);
    EXPECT_EQ(a.nodes[i].tx_total, b.nodes[i].tx_total);
    EXPECT_EQ(a.nodes[i].rx_total, b.nodes[i].rx_total);
    EXPECT_EQ(a.nodes[i].eeprom_writes, b.nodes[i].eeprom_writes);
    EXPECT_EQ(a.nodes[i].energy_nah, b.nodes[i].energy_nah);
    EXPECT_EQ(a.nodes[i].image_verified, b.nodes[i].image_verified);
  }
}

TEST(GridRunEquivalence, StaticRunsAreBitIdenticalAcrossSeeds) {
  for (const std::uint64_t seed :
       {1ull, 2ull, 3ull, 11ull, 57ull, 302ull, 9001ull}) {
    const harness::ExperimentConfig cfg = small_run(seed);
    expect_identical(harness::run_experiment(cfg),
                     harness::run_experiment(oracle(cfg)), seed);
  }
}

TEST(GridRunEquivalence, MobilityAndPartitionRunsAreBitIdentical) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    scenario::ScenarioBuilder b;
    b.move(sim::minutes(2), 5, 35.0, 5.0, sim::sec(30));
    b.move(sim::minutes(3), 10, 0.0, 25.0, sim::sec(20));
    b.partition(sim::minutes(4), sim::minutes(2), {{0, 1, 2, 3}, {12, 13, 14, 15}});
    b.degrade(sim::minutes(7), sim::minutes(1), 0.5, {5, 6});

    harness::ExperimentConfig cfg = small_run(seed);
    cfg.scenario = b.build("churn");
    expect_identical(harness::run_experiment(cfg),
                     harness::run_experiment(oracle(cfg)), seed);
  }
}

TEST(GridRunEquivalence, SweepIsBitIdenticalAcrossJobCounts) {
  const harness::ExperimentConfig cfg = small_run(1);
  harness::SweepOptions seq;
  seq.jobs = 1;
  seq.keep_raw = true;
  harness::SweepOptions par;
  par.jobs = 4;
  par.keep_raw = true;
  par.allow_oversubscribe = true;
  const auto a = harness::run_sweep(cfg, 3, 1, seq);
  const auto b = harness::run_sweep(cfg, 3, 1, par);
  ASSERT_EQ(a.raw.size(), 3u);
  ASSERT_EQ(b.raw.size(), 3u);
  for (std::size_t i = 0; i < a.raw.size(); ++i) {
    expect_identical(a.raw[i], b.raw[i], i + 1);
  }
}

}  // namespace
}  // namespace mnp
