// Tests for the observability layer (DESIGN.md section 9): the metrics
// registry, the Perfetto trace export (against a checked-in golden file),
// the run manifest, and the bit-identity of observed sweeps across job
// counts.
//
// Regenerate the golden trace after an intentional schema change with:
//   MNP_UPDATE_GOLDEN=1 ./build/tests/test_obs
// and bump obs::kTelemetrySchemaVersion if the change is breaking.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/observe.hpp"
#include "harness/sweep.hpp"
#include "obs/json_writer.hpp"
#include "obs/metrics.hpp"
#include "scenario/scenario.hpp"

#ifndef MNP_TEST_DATA_DIR
#define MNP_TEST_DATA_DIR "tests/data"
#endif

namespace mnp {
namespace {

// ---------------------------------------------------------------- JsonWriter

TEST(JsonWriter, EscapesAndFormats) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("s");
  w.value("a\"b\\c\n\t");
  w.key("f");
  w.value(1.5);
  w.key("third");
  w.value(1.0 / 3.0);
  w.key("i");
  w.value(std::int64_t{-7});
  w.key("b");
  w.value(true);
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"s\":\"a\\\"b\\\\c\\n\\t\",\"f\":1.5,"
            "\"third\":0.3333333333,\"i\":-7,\"b\":true}");
}

TEST(JsonWriter, NonFiniteBecomesNull) {
  obs::JsonWriter w;
  w.begin_array();
  w.value(std::numeric_limits<double>::infinity());
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.end_array();
  EXPECT_EQ(w.str(), "[null,null]");
}

// ----------------------------------------------------------- MetricsRegistry

TEST(MetricsRegistry, CounterPerNodeAndTotal) {
  obs::MetricsRegistry m(3);
  auto c = m.register_counter("chan.tx", obs::Unit::kCount, /*per_node=*/true);
  m.add(c, net::NodeId{0});
  m.add(c, net::NodeId{0});
  m.add(c, net::NodeId{2}, 5);
  EXPECT_EQ(m.counter_total("chan.tx"), 7u);
  EXPECT_EQ(m.counter_node("chan.tx", 0), 2u);
  EXPECT_EQ(m.counter_node("chan.tx", 1), 0u);
  EXPECT_EQ(m.counter_node("chan.tx", 2), 5u);
  // The handle reads the owners' accessors use see the same cells.
  EXPECT_EQ(m.total(c), 7u);
  EXPECT_EQ(m.at(c, 0), 2u);
  EXPECT_EQ(m.at(c, 2), 5u);
  EXPECT_EQ(m.at(c, 3), 0u);  // past the node count
}

TEST(MetricsRegistry, OutOfRangeNodeCountsTowardTotalOnly) {
  obs::MetricsRegistry m(2);
  auto c = m.register_counter("c", obs::Unit::kCount, true);
  m.add(c, net::kBroadcastId);
  EXPECT_EQ(m.counter_total("c"), 1u);
  EXPECT_EQ(m.counter_node("c", 0), 0u);
  EXPECT_EQ(m.counter_node("c", 1), 0u);
}

TEST(MetricsRegistry, RegistrationIsIdempotent) {
  obs::MetricsRegistry m(2);
  auto a = m.register_counter("x", obs::Unit::kBytes, true);
  auto b = m.register_counter("x", obs::Unit::kBytes, true);
  EXPECT_EQ(a.cell, b.cell);
  m.add(a, net::NodeId{1});
  m.add(b, net::NodeId{1});
  EXPECT_EQ(m.counter_node("x", 1), 2u);
}

TEST(MetricsRegistry, MergeAccumulatesElementWise) {
  obs::MetricsRegistry a(2), b(2);
  for (auto* m : {&a, &b}) {
    auto c = m->register_counter("c", obs::Unit::kCount, true);
    auto g = m->register_gauge("g", obs::Unit::kNanoampHours, false);
    m->add(c, net::NodeId{1}, 3);
    m->set(g, 2.5);
  }
  ASSERT_TRUE(a.merge_from(b));
  EXPECT_EQ(a.counter_total("c"), 6u);
  EXPECT_EQ(a.counter_node("c", 1), 6u);
  EXPECT_DOUBLE_EQ(a.gauge_total("g"), 5.0);
}

TEST(MetricsRegistry, MergeRefusesDifferingSchemas) {
  obs::MetricsRegistry a(2), b(2);
  a.register_counter("c", obs::Unit::kCount, true);
  b.register_counter("other", obs::Unit::kCount, true);
  EXPECT_FALSE(a.merge_from(b));
}

TEST(MetricsRegistry, ExportIsSortedByName) {
  obs::MetricsRegistry m;
  m.register_counter("zeta", obs::Unit::kCount, false);
  m.register_counter("alpha", obs::Unit::kCount, false);
  obs::JsonWriter w;
  m.write_json(w);
  const std::string json = w.str();
  EXPECT_LT(json.find("alpha"), json.find("zeta"));
}

// ------------------------------------------------------------- observed runs

harness::ExperimentConfig tiny() {
  harness::ExperimentConfig cfg;
  cfg.rows = 3;
  cfg.cols = 3;
  cfg.set_program_segments(1);
  cfg.max_sim_time = sim::hours(1);
  return cfg;
}

TEST(ObservedRun, PublishesMetricsTraceAndCounterTracks) {
  harness::Observation obs;
  const auto r = harness::run_experiment(tiny(), &obs);
  EXPECT_TRUE(r.all_completed);
  EXPECT_EQ(obs.node_count, 9u);
  EXPECT_EQ(obs.log.dropped(), 0u);
  EXPECT_GT(obs.log.size(), 0u);
  // One subsystem per layer: channel, MAC, protocol, energy, run summary.
  // The channel counters agree with the RunResult exactly, total and per
  // node: a per-node cell sized before the node count was known would
  // spill its adds into the next metric's cells.
  EXPECT_EQ(obs.metrics.counter_total("chan.tx"), r.transmissions);
  EXPECT_EQ(obs.metrics.counter_total("chan.delivered"), r.deliveries);
  EXPECT_EQ(obs.metrics.counter_total("chan.collisions"), r.collisions);
  ASSERT_EQ(r.nodes.size(), 9u);
  for (net::NodeId id = 0; id < 9; ++id) {
    const harness::NodeResult& n = r.nodes[id];
    EXPECT_EQ(obs.metrics.counter_node("chan.tx", id), n.tx_total) << id;
    EXPECT_EQ(obs.metrics.counter_node("chan.delivered", id), n.rx_total)
        << id;
    EXPECT_EQ(obs.metrics.counter_node("chan.collisions", id),
              n.collisions_suffered)
        << id;
    EXPECT_EQ(obs.metrics.counter_node("node.completions", id), 1u) << id;
  }
  EXPECT_GT(obs.metrics.counter_total("mac.tx"), 0u);
  EXPECT_GT(obs.metrics.counter_total("mnp.data_sent"), 0u);
  EXPECT_GT(obs.metrics.gauge_total("energy.nah"), 0.0);
  EXPECT_DOUBLE_EQ(obs.metrics.gauge_total("run.completed_nodes"), 9.0);
  // Flash: the 2,816-byte image is one partial page, held once in the
  // network's copy; each of the 8 receivers keeps only its write marks.
  EXPECT_DOUBLE_EQ(obs.metrics.gauge_total("flash.store_pages"), 1.0);
  EXPECT_DOUBLE_EQ(obs.metrics.gauge_total("flash.own_pages_peak"), 0.0);
  EXPECT_DOUBLE_EQ(obs.metrics.gauge_total("flash.mark_pages_peak"), 8.0);
  // Counter tracks: per-node energy, the two channel cache-health series,
  // then the four message-class series.
  ASSERT_EQ(obs.counters.size(), 9u + 2u + 4u);
  EXPECT_EQ(obs.counters[0].name, "energy_nah");
  EXPECT_GE(obs.counters[0].samples.size(), 2u);  // t=0 and the final sample
  EXPECT_EQ(obs.counters[9].name, "cache_repairs");
  EXPECT_EQ(obs.counters[9].process, "network");
  EXPECT_GE(obs.counters[9].samples.size(), 2u);
  EXPECT_EQ(obs.counters[10].name, "cache_invalidations");
  EXPECT_EQ(obs.counters[11].name, "msgs_per_min_adv");
  EXPECT_EQ(obs.counters[11].process, "network");
}

// Observing a run (trace, audit, metrics copy) never changes it: each
// protocol on a 4x4 grid, and MNP on 10x10 under crashes, a partition and
// moves, returns the same whole RunResult observed and plain. The copied
// registry's chan.* cells are the RunResult's per-node counts.
TEST(ObservedRun, ObservationDoesNotPerturbTheRun) {
  std::vector<std::pair<std::string, harness::ExperimentConfig>> inputs;
  for (const harness::Protocol p :
       {harness::Protocol::kMnp, harness::Protocol::kDeluge,
        harness::Protocol::kMoap, harness::Protocol::kXnp,
        harness::Protocol::kNcast}) {
    harness::ExperimentConfig cfg = tiny();
    cfg.rows = 4;
    cfg.cols = 4;
    cfg.protocol = p;
    inputs.emplace_back(harness::protocol_name(p), cfg);
  }
  harness::ExperimentConfig churn = tiny();
  churn.rows = 10;
  churn.cols = 10;
  std::vector<net::NodeId> top(50), bottom(50);
  std::iota(top.begin(), top.end(), net::NodeId{0});
  std::iota(bottom.begin(), bottom.end(), net::NodeId{50});
  churn.scenario = scenario::ScenarioBuilder{}
                       .crash_fraction(sim::minutes(2), 0.2, sim::sec(45))
                       .partition(sim::minutes(3), sim::sec(30), {top, bottom})
                       .move(sim::sec(30), 55, 0.0, 0.0, sim::sec(60))
                       .move(sim::sec(45), 72, 90.0, 90.0, sim::sec(90))
                       .build("churn");
  inputs.emplace_back("MNP churn 10x10", churn);

  for (const auto& [name, cfg] : inputs) {
    harness::Observation obs;
    obs.with_audit = true;
    const harness::RunResult observed = harness::run_experiment(cfg, &obs);
    const harness::RunResult plain = harness::run_experiment(cfg);
    EXPECT_TRUE(observed == plain) << name;
    EXPECT_GT(observed.transmissions, 0u) << name;
    ASSERT_EQ(observed.nodes.size(), cfg.rows * cfg.cols) << name;
    for (net::NodeId id = 0; id < observed.nodes.size(); ++id) {
      const harness::NodeResult& n = observed.nodes[id];
      EXPECT_EQ(obs.metrics.counter_node("chan.tx", id), n.tx_total)
          << name << " node " << id;
      EXPECT_EQ(obs.metrics.counter_node("chan.delivered", id), n.rx_total)
          << name << " node " << id;
      EXPECT_EQ(obs.metrics.counter_node("chan.collisions", id),
                n.collisions_suffered)
          << name << " node " << id;
    }
  }
}

TEST(ObservedRun, DroppedEventsSurfaceInTheManifest) {
  harness::Observation obs(/*trace_capacity=*/10);
  const auto cfg = tiny();
  harness::run_experiment(cfg, &obs);
  EXPECT_GT(obs.log.dropped(), 0u);
  std::ostringstream manifest;
  harness::write_run_manifest(manifest, cfg, cfg.seed, 1, obs);
  const std::string expected =
      "\"dropped_events\":" + std::to_string(obs.log.dropped());
  EXPECT_NE(manifest.str().find(expected), std::string::npos);
  // And the trace header carries the same count.
  std::ostringstream trace;
  harness::write_trace_json(trace, obs);
  EXPECT_NE(trace.str().find(expected), std::string::npos);
}

// Satellite guarantee: the figure configurations must fit the default ring
// (their telemetry is the paper's evaluation; dropping any of it silently
// would corrupt the figures). 20x20 configs are exercised by the benches
// themselves; this covers the indoor figure class at test speed.
TEST(ObservedRun, FigureConfigsDropNoEvents) {
  for (const double range_ft : {9.0, 6.0}) {  // Fig. 5's two power levels
    harness::ExperimentConfig cfg;
    cfg.rows = 5;
    cfg.cols = 4;
    cfg.spacing_ft = 3.0;
    cfg.range_ft = range_ft;
    cfg.mnp.pipelining = false;
    cfg.mnp.packets_per_segment = 200;
    cfg.program_bytes = 200 * 22;
    cfg.seed = 11;
    harness::Observation obs;
    harness::run_experiment(cfg, &obs);
    EXPECT_EQ(obs.log.dropped(), 0u) << "range " << range_ft;
  }
}

// ------------------------------------------------------------ sweep identity

TEST(ObservedSweep, ExportsBitIdenticalAcrossJobCounts) {
  const auto cfg = tiny();
  const std::size_t runs = 4;

  const auto observe_with_jobs = [&](std::size_t jobs) {
    harness::Observation obs;
    harness::SweepOptions options;
    options.jobs = jobs;
    options.allow_oversubscribe = true;  // exercise the pool on any host
    options.observe = &obs;
    harness::run_sweep(cfg, runs, cfg.seed, options);
    std::ostringstream manifest, trace;
    harness::write_run_manifest(manifest, cfg, cfg.seed, runs, obs);
    harness::write_trace_json(trace, obs);
    return std::make_pair(manifest.str(), trace.str());
  };

  const auto sequential = observe_with_jobs(1);
  const auto parallel = observe_with_jobs(4);
  EXPECT_EQ(sequential.first, parallel.first);    // manifest
  EXPECT_EQ(sequential.second, parallel.second);  // representative trace
}

TEST(ObservedSweep, MergesMetricsOverAllSeeds) {
  const auto cfg = tiny();
  harness::Observation obs;
  harness::SweepOptions options;
  options.observe = &obs;
  harness::run_sweep(cfg, 3, cfg.seed, options);
  // Each of the 3 seeds completes all 9 nodes; gauges merge by summing.
  EXPECT_DOUBLE_EQ(obs.metrics.gauge_total("run.completed_nodes"), 27.0);
  harness::Observation single;
  harness::run_experiment(cfg, &single);
  EXPECT_GT(obs.metrics.counter_total("chan.tx"),
            single.metrics.counter_total("chan.tx"));
}

// -------------------------------------------------------------- golden trace

harness::ExperimentConfig golden_config() {
  harness::ExperimentConfig cfg;
  cfg.rows = 3;
  cfg.cols = 3;
  cfg.mnp.packets_per_segment = 16;  // keeps the checked-in snapshot small
  cfg.set_program_segments(1);
  cfg.max_sim_time = sim::hours(1);
  cfg.seed = 42;
  return cfg;
}

TEST(TraceGolden, MatchesCheckedInSnapshot) {
  harness::Observation obs;
  harness::run_experiment(golden_config(), &obs);
  ASSERT_EQ(obs.log.dropped(), 0u);
  std::ostringstream rendered;
  harness::write_trace_json(rendered, obs);

  const std::string path =
      std::string(MNP_TEST_DATA_DIR) + "/golden_trace_3x3.json";
  if (std::getenv("MNP_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << rendered.str();
    GTEST_SKIP() << "golden updated: " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " (regenerate with MNP_UPDATE_GOLDEN=1)";
  std::ostringstream expected;
  expected << in.rdbuf();
  // Byte equality: the export is deterministic by design — any diff is
  // either a real schema change (bump kTelemetrySchemaVersion, regenerate)
  // or a determinism regression.
  EXPECT_EQ(rendered.str(), expected.str());
}

}  // namespace
}  // namespace mnp
