// Scenario engine: builder/parser round-trips, link-model decoration,
// fault injection against live networks, the run-end predicate and the
// determinism contract (identical replays, --jobs-independent sweeps, the
// committed example).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/observe.hpp"
#include "harness/sweep.hpp"
#include "node/application.hpp"
#include "node/network.hpp"
#include "obs/json_writer.hpp"
#include "scenario/scenario.hpp"
#include "scenario/scenario_engine.hpp"
#include "scenario/scenario_link_model.hpp"
#include "scenario/scenario_parser.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace mnp {
namespace {

using scenario::EventKind;
using scenario::Scenario;
using scenario::ScenarioBuilder;

// --- Scenario / ScenarioBuilder -------------------------------------------

TEST(ScenarioBuilder, SortsEventsByTimeKeepingAuthoredOrderForTies) {
  Scenario s = ScenarioBuilder{}
                   .reboot(sim::sec(30), 4)
                   .kill(sim::sec(10), 4)
                   .move(sim::sec(10), 7, 50.0, 0.0, sim::sec(5))
                   .build("t");
  ASSERT_EQ(s.events().size(), 3u);
  EXPECT_EQ(s.events()[0].kind, EventKind::kKill);
  EXPECT_EQ(s.events()[1].kind, EventKind::kMove);  // same time, authored later
  EXPECT_EQ(s.events()[2].kind, EventKind::kReboot);
}

TEST(ScenarioBuilder, LastEventTimeIncludesWindowsDowntimeAndTravel) {
  EXPECT_EQ(Scenario{}.last_event_time(), 0);
  Scenario s = ScenarioBuilder{}
                   .kill(sim::sec(10), 3, /*down_for=*/sim::sec(60))
                   .partition(sim::sec(20), sim::sec(30), {{0, 1}, {2, 3}})
                   .move(sim::sec(5), 2, 0.0, 0.0, sim::sec(90))
                   .battery_budget(sim::sec(94), 1, 1e9)
                   .build();
  // kill ends at 70s, partition at 50s, move at 95s. The battery monitor
  // counts its arm time (94s) but, being open-ended, adds no duration —
  // it must not hold the horizon past the move.
  EXPECT_EQ(s.last_event_time(), sim::sec(95));
}

// --- text format -----------------------------------------------------------

TEST(ScenarioParser, ParsesEveryVerbAndExpandsNodeLists) {
  const auto r = scenario::parse_scenario_text(
      "# churn demo\n"
      "scenario demo\n"
      "at 10s kill 3-5,9 down 30s\n"
      "at 2min crash-fraction 0.2 down 45s\n"
      "at 40s reboot 3\n"
      "at 0s battery 7 budget 50000\n"
      "at 3min partition 30s groups 0-4|5-9\n"
      "at 1min degrade 0.3 for 20s nodes 1,2\n"
      "at 30s move 5 to 100 40 over 60s\n");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.scenario.name(), "demo");
  // "kill 3-5,9" expands to four kill events.
  std::size_t kills = 0;
  for (const auto& e : r.scenario.events()) {
    if (e.kind == EventKind::kKill) {
      ++kills;
      EXPECT_EQ(e.at, sim::sec(10));
      EXPECT_EQ(e.duration, sim::sec(30));
    }
  }
  EXPECT_EQ(kills, 4u);
  EXPECT_EQ(r.scenario.events().size(), 4u + 6u);
  EXPECT_EQ(r.scenario.events().front().kind, EventKind::kBatteryBudget);
}

TEST(ScenarioParser, RoundTripsThroughToText) {
  Scenario s = ScenarioBuilder{}
                   .kill(sim::sec(10), 3, sim::sec(30))
                   .crash_fraction(sim::minutes(2), 0.2, sim::sec(45))
                   .battery_budget(0, 7, 50000.0)
                   .partition(sim::minutes(3), sim::sec(30),
                              {{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}})
                   .degrade(sim::minutes(1), sim::sec(20), 0.3, {1, 2})
                   .move(sim::sec(30), 5, 100.0, 40.0, sim::sec(60))
                   .build("roundtrip");
  const std::string text = scenario::to_text(s);
  const auto r = scenario::parse_scenario_text(text);
  ASSERT_TRUE(r.ok) << r.error << "\n" << text;
  EXPECT_EQ(r.scenario.name(), s.name());
  ASSERT_EQ(r.scenario.events().size(), s.events().size());
  for (std::size_t i = 0; i < s.events().size(); ++i) {
    const auto& a = s.events()[i];
    const auto& b = r.scenario.events()[i];
    EXPECT_EQ(a.kind, b.kind) << "event " << i;
    EXPECT_EQ(a.at, b.at);
    EXPECT_EQ(a.node, b.node);
    EXPECT_DOUBLE_EQ(a.value, b.value);
    EXPECT_EQ(a.duration, b.duration);
    EXPECT_DOUBLE_EQ(a.x, b.x);
    EXPECT_DOUBLE_EQ(a.y, b.y);
    EXPECT_EQ(a.groups, b.groups);
    EXPECT_EQ(a.nodes, b.nodes);
  }
  // Serialization is a fixed point: text -> scenario -> identical text.
  EXPECT_EQ(scenario::to_text(r.scenario), text);
}

TEST(ScenarioParser, ErrorsCarryTheLineNumber) {
  const auto bare = scenario::parse_scenario_text("at 10s kill 3\nat 20 kill 4\n");
  ASSERT_FALSE(bare.ok);
  EXPECT_NE(bare.error.find("line 2"), std::string::npos) << bare.error;

  const auto verb = scenario::parse_scenario_text("\n\nat 1s explode 3\n");
  ASSERT_FALSE(verb.ok);
  EXPECT_NE(verb.error.find("line 3"), std::string::npos) << verb.error;
  EXPECT_NE(verb.error.find("explode"), std::string::npos) << verb.error;

  EXPECT_FALSE(scenario::parse_scenario_text("at 1s partition 5s groups 0-3").ok);
  EXPECT_FALSE(scenario::parse_scenario_text("at 1s crash-fraction 1.5").ok);
  EXPECT_FALSE(scenario::parse_scenario_text("at 1s degrade 0.5 for").ok);
  EXPECT_FALSE(scenario::load_scenario_file("/nonexistent/x.scn").ok);
}

TEST(ScenarioParser, CommittedExampleParses) {
  const auto r = scenario::load_scenario_file(
      std::string(MNP_EXAMPLE_SCENARIO_DIR) + "/churn_partition_mobility.scn");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.scenario.name(), "churn-partition-mobility");
  ASSERT_EQ(r.scenario.events().size(), 5u);
  bool has_crash = false, has_partition = false;
  std::size_t moves = 0;
  for (const auto& e : r.scenario.events()) {
    has_crash |= e.kind == EventKind::kCrashFraction;
    has_partition |= e.kind == EventKind::kPartition;
    moves += e.kind == EventKind::kMove ? 1 : 0;
  }
  EXPECT_TRUE(has_crash);
  EXPECT_TRUE(has_partition);
  EXPECT_EQ(moves, 3u);
}

// --- ScenarioLinkModel -----------------------------------------------------

TEST(ScenarioLinkModel, PartitionSeversCrossGroupLinksOnly) {
  net::Topology topo;
  for (int i = 0; i < 4; ++i) topo.add({i * 10.0, 0.0});
  scenario::ScenarioLinkModel links(
      std::make_unique<net::DiskLinkModel>(topo, 100.0), topo.size());
  ASSERT_GT(links.packet_success(0, 3, 1.0), 0.0);
  EXPECT_EQ(links.revision(), 0u);

  links.set_partition({{0, 1}, {2}});
  EXPECT_EQ(links.revision(), 1u);
  EXPECT_GT(links.packet_success(0, 1, 1.0), 0.0);  // same group
  EXPECT_EQ(links.packet_success(0, 2, 1.0), 0.0);  // cross group
  EXPECT_FALSE(links.interferes(0, 2, 1.0));        // radio-disjoint
  // Node 3 is unlisted: its implicit group talks to neither side.
  EXPECT_EQ(links.packet_success(3, 0, 1.0), 0.0);
  EXPECT_EQ(links.packet_success(2, 3, 1.0), 0.0);

  links.clear_partition();
  EXPECT_EQ(links.revision(), 2u);
  EXPECT_GT(links.packet_success(0, 2, 1.0), 0.0);
}

TEST(ScenarioLinkModel, DegradeScalesBothEndpointsAndUndoes) {
  net::Topology topo;
  topo.add({0.0, 0.0});
  topo.add({10.0, 0.0});
  topo.add({20.0, 0.0});
  scenario::ScenarioLinkModel links(
      std::make_unique<net::DiskLinkModel>(topo, 100.0), topo.size());
  const double base = links.packet_success(0, 1, 1.0);
  ASSERT_DOUBLE_EQ(base, 1.0);

  links.begin_degrade(0.5, {0});
  EXPECT_DOUBLE_EQ(links.packet_success(0, 1, 1.0), 0.5);  // src degraded
  EXPECT_DOUBLE_EQ(links.packet_success(1, 0, 1.0), 0.5);  // dst degraded
  EXPECT_DOUBLE_EQ(links.packet_success(1, 2, 1.0), 1.0);  // untouched pair
  links.begin_degrade(0.5, {1});
  EXPECT_DOUBLE_EQ(links.packet_success(0, 1, 1.0), 0.25);  // both ends

  links.end_degrade(0.5, {0});
  links.end_degrade(0.5, {1});
  EXPECT_DOUBLE_EQ(links.packet_success(0, 1, 1.0), 1.0);
  EXPECT_EQ(links.revision(), 4u);
}

// --- engine against a live run --------------------------------------------

harness::ExperimentConfig small_config() {
  harness::ExperimentConfig cfg;
  cfg.rows = 3;
  cfg.cols = 3;
  cfg.set_program_segments(2);
  cfg.max_sim_time = sim::hours(1);
  return cfg;
}

TEST(ScenarioEngine, RejectsInvalidScenariosBeforeBoot) {
  harness::ExperimentConfig cfg = small_config();
  cfg.scenario = ScenarioBuilder{}.kill(sim::sec(1), 99).build("bad");
  const auto r = harness::run_experiment(cfg);
  EXPECT_FALSE(r.scenario_error.empty());
  EXPECT_EQ(r.completed_count, 0u);

  cfg.scenario =
      ScenarioBuilder{}.partition(sim::sec(1), sim::sec(1), {{0, 1}, {1, 2}})
          .build("dup");
  EXPECT_NE(harness::run_experiment(cfg).scenario_error.find("two groups"),
            std::string::npos);

  // Waypoints off the field node positions may occupy: parsed text (what
  // --scenario and POST /runs take) and the builder are refused alike.
  for (const char* to : {"nan 0", "0 inf", "-inf 5", "1e300 0"}) {
    const auto parsed = scenario::parse_scenario_text(
        std::string("at 5s move 3 to ") + to + "\n");
    ASSERT_TRUE(parsed.ok) << to;
    cfg.scenario = parsed.scenario;
    const auto r_far = harness::run_experiment(cfg);
    EXPECT_NE(r_far.scenario_error.find("waypoint"), std::string::npos) << to;
    EXPECT_EQ(r_far.completed_count, 0u) << to;
  }
  cfg.scenario =
      ScenarioBuilder{}.move(sim::sec(5), 3, 0.0, -1.01 * net::kMaxCoordinateFt)
          .build("far");
  EXPECT_NE(harness::run_experiment(cfg).scenario_error.find("waypoint"),
            std::string::npos);
  // The field's corner itself is a legal waypoint.
  cfg.max_sim_time = sim::sec(30);
  cfg.scenario = ScenarioBuilder{}
                     .move(sim::sec(5), 3, net::kMaxCoordinateFt,
                           -net::kMaxCoordinateFt, sim::sec(3))
                     .build("corner");
  EXPECT_TRUE(harness::run_experiment(cfg).scenario_error.empty());
}

TEST(ScenarioEngine, PermanentKillLeavesTheNodeDeadAndOthersConverge) {
  harness::ExperimentConfig cfg = small_config();
  cfg.scenario = ScenarioBuilder{}.kill(sim::sec(20), 8).build("one-dead");
  const auto r = harness::run_experiment(cfg);
  ASSERT_TRUE(r.scenario_error.empty());
  EXPECT_EQ(r.dead_nodes, 1u);
  EXPECT_EQ(r.scenario_injected, 1u);
  EXPECT_FALSE(r.all_completed);
  // Everyone else still finishes and verifies.
  EXPECT_GE(r.completed_count, 8u);
  for (net::NodeId id = 0; id < 8; ++id) {
    EXPECT_TRUE(r.nodes[id].image_verified) << "node " << id;
  }
}

TEST(ScenarioEngine, BatteryBudgetKillsTheNodeOnceSpent) {
  harness::ExperimentConfig cfg = small_config();
  // A fraction of the ~1e6 nAh a full run costs: the node dies mid-run.
  cfg.scenario =
      ScenarioBuilder{}.battery_budget(0, 4, 20000.0).build("battery");
  const auto r = harness::run_experiment(cfg);
  ASSERT_TRUE(r.scenario_error.empty());
  EXPECT_EQ(r.dead_nodes, 1u);
  EXPECT_GE(r.scenario_injected, 1u);
  // The meter kept billing until the watchdog fired, so the victim's spend
  // is at (or just past) the budget, never far beyond it.
  EXPECT_GE(r.nodes[4].energy_nah, 20000.0);
  EXPECT_LT(r.nodes[4].energy_nah, 40000.0);
}

TEST(ScenarioEngine, MobilityReparentsAndStillConverges) {
  harness::ExperimentConfig cfg = small_config();
  // Node 8 (far corner) glides next to the base while downloading.
  cfg.scenario =
      ScenarioBuilder{}.move(sim::sec(10), 8, 5.0, 0.0, sim::sec(30))
          .build("walker");
  const auto r = harness::run_experiment(cfg);
  ASSERT_TRUE(r.scenario_error.empty());
  EXPECT_TRUE(r.all_completed);
  EXPECT_EQ(r.verified_count(), 9u);
  EXPECT_EQ(r.dead_nodes, 0u);
}

TEST(ScenarioEngine, ChurnRunReplaysBitIdentically) {
  harness::ExperimentConfig cfg = small_config();
  cfg.scenario = ScenarioBuilder{}
                     .kill(sim::sec(15), 4, /*down_for=*/sim::sec(20))
                     .degrade(sim::sec(5), sim::sec(10), 0.5)
                     .build("replay");
  harness::Observation a, b;
  const auto ra = harness::run_experiment(cfg, &a);
  const auto rb = harness::run_experiment(cfg, &b);
  ASSERT_TRUE(ra.scenario_error.empty());
  EXPECT_EQ(ra.completion_time, rb.completion_time);
  EXPECT_EQ(ra.transmissions, rb.transmissions);
  EXPECT_EQ(ra.collisions, rb.collisions);
  EXPECT_EQ(ra.scenario_injected, rb.scenario_injected);
  std::ostringstream ta, tb;
  harness::write_trace_json(ta, a);
  harness::write_trace_json(tb, b);
  EXPECT_EQ(ta.str(), tb.str());
  // The fault windows are visible in the export: a scenario track exists.
  EXPECT_NE(ta.str().find("\"scenario\""), std::string::npos);
  EXPECT_NE(ta.str().find("degrade"), std::string::npos);
  EXPECT_NE(ta.str().find("kill 4"), std::string::npos);
}

TEST(ScenarioEngine, SweepIsJobCountIndependentUnderChurn) {
  harness::ExperimentConfig cfg = small_config();
  cfg.scenario = ScenarioBuilder{}
                     .kill(sim::sec(15), 4, /*down_for=*/sim::sec(20))
                     .partition(sim::sec(10), sim::sec(10), {{0, 1, 2, 3, 4},
                                                             {5, 6, 7, 8}})
                     .build("sweep");
  const auto run = [&cfg](std::size_t jobs) {
    harness::SweepOptions opt;
    opt.jobs = jobs;
    opt.allow_oversubscribe = true;
    harness::Observation obs;
    opt.observe = &obs;
    const auto sweep = harness::run_sweep(cfg, 4, 1, opt);
    obs::JsonWriter w;
    obs.metrics.write_json(w);
    return std::pair<std::size_t, std::string>(sweep.fully_completed_runs,
                                               w.str());
  };
  const auto sequential = run(1);
  const auto parallel = run(4);
  EXPECT_EQ(sequential.first, parallel.first);
  EXPECT_EQ(sequential.second, parallel.second);
  EXPECT_NE(sequential.second.find("scenario.kills"), std::string::npos);
}

// --- run-end predicate -----------------------------------------------------

/// Counts has_complete_image() queries and remembers the node last asked.
struct ImageProbe {
  std::uint64_t calls = 0;
  net::NodeId last = net::kNoNode;
};

/// An application whose image is a flag the test sets. It lives in RAM
/// only, so a reboot loses it (a protocol rebooting without a journal).
class FlagApp : public node::Application {
 public:
  FlagApp(net::NodeId id, ImageProbe& probe) : id_(id), probe_(probe) {}
  void start(node::Node&) override {}
  void on_packet(const net::Packet&) override {}
  bool has_complete_image() const override {
    ++probe_.calls;
    probe_.last = id_;
    return complete;
  }
  void reset_for_reboot() override { complete = false; }

  bool complete = false;

 private:
  net::NodeId id_;
  ImageProbe& probe_;
};

/// A row of FlagApp nodes under an armed empty scenario, so converged()
/// answers from the nodes alone.
struct FlagNetwork {
  explicit FlagNetwork(std::size_t n)
      : network(sim, net::Topology::grid(1, n, 10.0),
                [](const net::Topology& t) {
                  return std::make_unique<net::DiskLinkModel>(t, 25.0);
                }),
        engine(empty, network, nullptr) {
    for (net::NodeId id = 0; id < n; ++id) {
      auto app = std::make_unique<FlagApp>(id, probe);
      apps.push_back(app.get());
      network.node(id).set_application(std::move(app));
    }
    std::string error;
    EXPECT_TRUE(engine.arm(&error)) << error;
  }

  /// The predicate's meaning as a plain full scan.
  bool all_live_complete() const {
    for (net::NodeId id = 0; id < apps.size(); ++id) {
      if (!network.node(id).is_dead() && !apps[id]->complete) return false;
    }
    return true;
  }

  sim::Simulator sim{1};
  Scenario empty;
  ImageProbe probe;
  node::Network network;
  scenario::ScenarioEngine engine;
  std::vector<FlagApp*> apps;
};

// converged() resumes its scan at the last laggard. Seeded completions,
// regressions, kills and reboots, a share of them aimed at nodes the scan
// has already passed, must leave its answer equal to a full scan's after
// every operation.
TEST(ScenarioEngine, ConvergedMatchesAFullScanUnderRandomOperations) {
  constexpr std::size_t kNodes = 24;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    FlagNetwork f(kNodes);
    sim::Rng rng(seed);
    const auto any_node = [&rng] {
      return static_cast<net::NodeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(kNodes) - 1));
    };
    // Loses node `id`'s image: a live node forgets it, a dead one reboots.
    const auto regress = [&f](net::NodeId id) {
      node::Node& n = f.network.node(id);
      if (n.is_dead()) {
        n.reboot();
      } else {
        f.apps[id]->complete = false;
      }
    };
    std::size_t yes = 0;
    std::size_t no = 0;
    std::size_t behind = 0;
    bool last_no = false;
    for (int op = 0; op < 4000; ++op) {
      const double u = rng.uniform_real(0.0, 1.0);
      if (u < 0.55) {
        // Complete a random live laggard, if there is one.
        std::vector<net::NodeId> lagging;
        for (net::NodeId id = 0; id < kNodes; ++id) {
          if (!f.network.node(id).is_dead() && !f.apps[id]->complete) {
            lagging.push_back(id);
          }
        }
        if (!lagging.empty()) {
          f.apps[lagging[static_cast<std::size_t>(rng.uniform_int(
                     0, static_cast<std::int64_t>(lagging.size()) - 1))]]
              ->complete = true;
        }
      } else if (u < 0.70) {
        // After a "no" the probe names the laggard the scan resumes at;
        // regress a node before it.
        if (last_no && f.probe.last > 0) {
          regress(static_cast<net::NodeId>(
              rng.uniform_int(0, f.probe.last - 1)));
          ++behind;
        }
      } else if (u < 0.80) {
        regress(any_node());
      } else if (u < 0.90) {
        f.network.node(any_node()).kill();
      } else {
        f.network.node(any_node()).reboot();  // no-op on a live node
      }
      const bool expected = f.all_live_complete();
      const bool got = f.engine.converged();
      ASSERT_EQ(got, expected) << "seed " << seed << ", operation " << op;
      if (got) {
        ++yes;
      } else {
        ++no;
      }
      last_no = !got;
    }
    // Both answers, and regressions behind the resume point, all occur.
    EXPECT_GT(yes, 200u) << "seed " << seed;
    EXPECT_GT(no, 200u) << "seed " << seed;
    EXPECT_GT(behind, 100u) << "seed " << seed;
  }
}

// The work bound. Nodes complete in ascending id order with K calls
// between completions: each call costs one image query, each catch-up one
// more, and the final "yes" one full pass, so the total stays within calls
// + 2N. A scan that restarts at node 0 makes about K·N²/2.
TEST(ScenarioEngine, ConvergedQueriesAtMostCallsPlusTwiceTheNodes) {
  constexpr std::size_t kNodes = 40;
  constexpr int kCallsBetween = 25;
  FlagNetwork f(kNodes);
  std::uint64_t calls = 0;
  for (net::NodeId id = 0; id < kNodes; ++id) {
    for (int k = 0; k < kCallsBetween; ++k) {
      EXPECT_FALSE(f.engine.converged());
      ++calls;
    }
    f.apps[id]->complete = true;
  }
  EXPECT_TRUE(f.engine.converged());
  ++calls;
  EXPECT_LE(f.probe.calls, calls + 2 * kNodes)
      << f.probe.calls << " image queries over " << calls << " calls";
}

}  // namespace
}  // namespace mnp
