// SpatialGrid unit tests, the incremental-repair property (repairing a
// dirty row after moves must equal a from-scratch rebuild), raw channel
// bursts at scale (10k mobile nodes against the oracle, and the largest
// grid a NodeId can address), and harness level bit-identity of runs on
// the grid-backed cache vs. the brute-force neighbor_cache=false oracle:
// every protocol, static and churned worlds, whole RunResults plus audit
// chains.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/observe.hpp"
#include "harness/sweep.hpp"
#include "net/channel.hpp"
#include "net/link_model.hpp"
#include "net/radio.hpp"
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
  obs::MetricsRegistry metrics(kNodes);
  net::Channel channel(sim, topo, links, metrics, net::Channel::Params{});
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
    obs::MetricsRegistry fresh_metrics(kNodes);
    net::Channel fresh(sim, topo, links, fresh_metrics, net::Channel::Params{});
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

// --- scale: raw channel bursts on large fields ------------------------------
//
// No protocol above the channel: every 100 ms, 8 random sources each
// broadcast one data packet, 500 us apart, so transmissions overlap. A
// mobile field also teleports 1% of its nodes to random spots in
// [0, extent)^2 halfway through each burst, as scenario waypoints would.

struct BurstRun {
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t collisions = 0;
  std::uint64_t cache_repairs = 0;
  std::uint64_t cache_invalidations = 0;
  std::size_t grid_cells = 0;
};

BurstRun run_bursts(net::Topology topo, double extent, bool mobile,
                    int bursts, bool neighbor_cache) {
  sim::Simulator sim(1);
  net::DiskLinkModel links(topo, 25.0, 1.5);
  net::Channel::Params cp;
  cp.neighbor_cache = neighbor_cache;
  obs::MetricsRegistry metrics(topo.size());
  net::Channel channel(sim, topo, links, metrics, cp);
  const std::size_t n = topo.size();
  std::vector<std::unique_ptr<energy::EnergyMeter>> meters;
  std::vector<std::unique_ptr<net::Radio>> radios;
  for (std::size_t i = 0; i < n; ++i) {
    meters.push_back(std::make_unique<energy::EnergyMeter>());
    radios.push_back(std::make_unique<net::Radio>(
        static_cast<net::NodeId>(i), sim.scheduler(), channel, *meters[i]));
    channel.register_radio(*radios[i]);
    radios[i]->turn_on();
  }

  net::Packet pkt;
  net::DataMsg d;
  d.payload.assign(22, 1);
  pkt.payload = std::move(d);
  sim::Rng traffic(4243);
  const auto last = static_cast<std::int64_t>(n) - 1;
  // One hop list per burst, alive until the run below ends.
  std::vector<std::vector<std::pair<net::NodeId, net::Position>>> hop_lists(
      static_cast<std::size_t>(bursts));
  for (int burst = 0; burst < bursts; ++burst) {
    const auto t0 = static_cast<sim::Time>(burst) * 100000;
    for (int k = 0; k < 8; ++k) {
      net::Radio* radio = radios[traffic.uniform_int(0, last)].get();
      sim.scheduler().schedule_at(t0 + k * 500, [radio, &pkt] {
        radio->start_transmission(pkt);
      });
    }
    if (!mobile) continue;
    auto& hops = hop_lists[static_cast<std::size_t>(burst)];
    for (std::size_t m = 0; m < n / 100; ++m) {
      const net::Position to{traffic.uniform_real(0.0, extent),
                             traffic.uniform_real(0.0, extent)};
      const auto id = static_cast<net::NodeId>(traffic.uniform_int(0, last));
      hops.emplace_back(id, to);
    }
    sim.scheduler().schedule_at(t0 + 50000, [&topo, &hops] {
      for (const auto& [id, to] : hops) topo.set_position(id, to);
    });
  }
  sim.run_until(static_cast<sim::Time>(bursts) * 100000 + 1000000);
  return {channel.transmissions(), channel.deliveries(),
          channel.collisions(),    channel.cache_repairs(),
          channel.cache_invalidations(), channel.grid_cells()};
}

// 10,000 nodes at about 12 per interference disc, 1% moving per burst:
// the cached path repairs rows through the grid and must count exactly
// what the oracle counts.
TEST(ScaleRun, TenThousandMobileNodesMatchTheOracle) {
  constexpr std::size_t kNodes = 10000;
  constexpr double kPerSqFt = 12.0 / (3.14159265358979323846 * 37.5 * 37.5);
  const double extent = std::sqrt(kNodes / kPerSqFt);
  const net::Topology topo = random_topology(kNodes, extent, 1235);
  const BurstRun cached = run_bursts(topo, extent, true, 10, true);
  const BurstRun brute = run_bursts(topo, extent, true, 10, false);
  EXPECT_EQ(cached.transmissions, 80u);
  EXPECT_GT(cached.deliveries, 0u);
  EXPECT_GT(cached.cache_repairs, 0u);
  EXPECT_GT(cached.cache_invalidations, 0u);
  EXPECT_GT(cached.grid_cells, 0u);
  EXPECT_EQ(cached.transmissions, brute.transmissions);
  EXPECT_EQ(cached.deliveries, brute.deliveries);
  EXPECT_EQ(cached.collisions, brute.collisions);
  // The counts DESIGN.md section 11 quotes.
  EXPECT_EQ(cached.deliveries, 387u);
  EXPECT_EQ(cached.collisions, 44u);
}

// The most nodes a NodeId can address, on a 255x257 grid: the run ends,
// packets arrive, and rows are built only for sources that transmit.
TEST(ScaleRun, LargestAddressableGridBuildsRowsOnlyForSenders) {
  const net::Topology topo = net::Topology::grid(255, 257, 10.0);
  ASSERT_EQ(topo.size(), net::kMaxNodes);
  const BurstRun run = run_bursts(topo, 0.0, false, 100, true);
  EXPECT_EQ(run.transmissions, 800u);
  EXPECT_GT(run.deliveries, 0u);
  EXPECT_LE(run.cache_repairs, run.transmissions);
  // The counts DESIGN.md section 11 quotes.
  EXPECT_EQ(run.deliveries, 15902u);
  EXPECT_EQ(run.cache_repairs, 796u);
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

// "Same bytes out", not "statistically similar": the defaulted operator==
// compares every field of the run and of every node. The headline counters
// are checked first only so that a failure says where the runs parted.
void expect_identical(const harness::RunResult& a, const harness::RunResult& b,
                      std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.bulk_overlaps, b.bulk_overlaps);
  EXPECT_TRUE(a == b) << "RunResults differ beyond the headline counters";
}

TEST(GridRunEquivalence, StaticRunsAreBitIdenticalAcrossSeeds) {
  for (const std::uint64_t seed :
       {1ull, 2ull, 3ull, 11ull, 57ull, 302ull, 9001ull}) {
    const harness::ExperimentConfig cfg = small_run(seed);
    expect_identical(harness::run_experiment(cfg),
                     harness::run_experiment(oracle(cfg)), seed);
  }
}

// The protocol x world matrix: every protocol on a 4x4 and an 8x8 grid,
// seeds 1-3, in a static world, under a crash wave whose victims reboot,
// and under scripted moves + a partition + a degrade window. Each cached
// run must equal its oracle run in every RunResult field and in its
// determinism-audit chain (DESIGN.md section 12). XNP is single-hop and
// does not complete at 8x8 on either path; its runs are compared anyway.
enum class World { kStatic, kCrashReboot, kMoveCutDegrade };

harness::ExperimentConfig matrix_run(harness::Protocol protocol,
                                     std::size_t side, std::uint64_t seed,
                                     World world) {
  harness::ExperimentConfig cfg = small_run(seed);
  cfg.protocol = protocol;
  cfg.rows = side;
  cfg.cols = side;
  scenario::ScenarioBuilder b;
  switch (world) {
    case World::kStatic:
      break;
    case World::kCrashReboot:
      b.crash_fraction(sim::minutes(1), 0.25, sim::sec(45));
      cfg.scenario = b.build("crash-reboot");
      break;
    case World::kMoveCutDegrade:
      b.move(sim::minutes(2), 5, 35.0, 5.0, sim::sec(30));
      b.move(sim::minutes(3), 10, 0.0, 25.0, sim::sec(20));
      b.partition(sim::minutes(4), sim::minutes(2),
                  {{0, 1, 2, 3}, {12, 13, 14, 15}});
      b.degrade(sim::minutes(7), sim::minutes(1), 0.5, {5, 6});
      cfg.scenario = b.build("move-cut-degrade");
      break;
  }
  return cfg;
}

struct AuditedRun {
  harness::RunResult result;
  std::uint64_t chain = 0;
};

AuditedRun audited_run(const harness::ExperimentConfig& cfg) {
  harness::Observation obs;
  obs.with_trace = false;
  obs.energy_sample_interval = 0;
  obs.with_audit = true;
  AuditedRun run;
  run.result = harness::run_experiment(cfg, &obs);
  run.chain = obs.audit.chain();
  return run;
}

void expect_matches_oracle(harness::Protocol protocol) {
  for (const std::size_t side : {4u, 8u}) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      for (const World world :
           {World::kStatic, World::kCrashReboot, World::kMoveCutDegrade}) {
        SCOPED_TRACE(std::to_string(side) + "x" + std::to_string(side) +
                     " world " + std::to_string(static_cast<int>(world)));
        const harness::ExperimentConfig cfg =
            matrix_run(protocol, side, seed, world);
        const AuditedRun cached = audited_run(cfg);
        const AuditedRun brute = audited_run(oracle(cfg));
        ASSERT_TRUE(cached.result.scenario_error.empty())
            << cached.result.scenario_error;
        expect_identical(cached.result, brute.result, seed);
        EXPECT_EQ(cached.chain, brute.chain) << "seed " << seed;
      }
    }
  }
}

// One test per protocol, so a parallel ctest spreads the matrix.
TEST(GridRunEquivalence, MnpMatchesOracle) {
  expect_matches_oracle(harness::Protocol::kMnp);
}
TEST(GridRunEquivalence, DelugeMatchesOracle) {
  expect_matches_oracle(harness::Protocol::kDeluge);
}
TEST(GridRunEquivalence, MoapMatchesOracle) {
  expect_matches_oracle(harness::Protocol::kMoap);
}
TEST(GridRunEquivalence, XnpMatchesOracle) {
  expect_matches_oracle(harness::Protocol::kXnp);
}
TEST(GridRunEquivalence, NcastMatchesOracle) {
  expect_matches_oracle(harness::Protocol::kNcast);
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
