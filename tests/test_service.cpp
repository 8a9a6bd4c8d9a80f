// Fleet service tests (DESIGN.md §14): the JSON reader, canonical
// manifest hashing (CLI flags vs JSON body must collide), the shared
// asset caches (shared-asset runs must be bit-identical to fresh-asset
// runs), the dedup'ing run store, and the whole HTTP surface end-to-end
// over a loopback socket — including the contract the dedup cache rests
// on: stored metrics bytes equal a fresh one-shot simulation's export.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/config_schema.hpp"
#include "harness/experiment.hpp"
#include "harness/observe.hpp"
#include "service/asset_cache.hpp"
#include "service/http_client.hpp"
#include "service/json.hpp"
#include "service/manifest.hpp"
#include "service/run_request.hpp"
#include "service/run_store.hpp"
#include "service/server.hpp"

namespace mnp {
namespace {

// A config small enough that a full dissemination finishes in well under
// a second: every HTTP test runs real simulations.
const std::vector<std::pair<std::string, std::string>> kSmallRun = {
    {"rows", "5"},     {"cols", "5"},
    {"segments", "1"}, {"max_sim_time_s", "900"},
};

harness::ExperimentConfig small_config() {
  harness::ExperimentConfig cfg;
  std::string error;
  for (const auto& [key, value] : kSmallRun) {
    EXPECT_TRUE(harness::apply_config_option(cfg, key, value, &error)) << error;
  }
  return cfg;
}

// --- JSON reader --------------------------------------------------------

TEST(ServiceJson, ParsesScalarsArraysObjects) {
  const auto r = service::parse_json(
      R"({"a": 1.5, "b": "x\nA", "c": [true, null, -2], "d": {"e": 7}})");
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_TRUE(r.value.is_object());
  EXPECT_DOUBLE_EQ(r.value.find("a")->number, 1.5);
  EXPECT_EQ(r.value.find("b")->string, "x\nA");
  ASSERT_TRUE(r.value.find("c")->is_array());
  ASSERT_EQ(r.value.find("c")->items.size(), 3u);
  EXPECT_TRUE(r.value.find("c")->items[0].bool_or(false));
  EXPECT_TRUE(r.value.find("c")->items[1].is_null());
  EXPECT_DOUBLE_EQ(r.value.find("c")->items[2].number, -2.0);
  EXPECT_DOUBLE_EQ(r.value.find("d")->find("e")->number, 7.0);
}

TEST(ServiceJson, RejectsMalformedInput) {
  EXPECT_FALSE(service::parse_json("").ok);
  EXPECT_FALSE(service::parse_json("{").ok);
  EXPECT_FALSE(service::parse_json("{} trailing").ok);
  EXPECT_FALSE(service::parse_json("{\"a\": }").ok);
  EXPECT_FALSE(service::parse_json("[1, 2,]").ok);
  EXPECT_FALSE(service::parse_json("nul").ok);
}

TEST(ServiceJson, RoundTripsWriterOutput) {
  const std::string body = service::run_request_json(
      kSmallRun, "# scenario\n", {1, 2, 3});
  const auto r = service::parse_json(body);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.value.find("config")->find("rows")->string, "5");
  EXPECT_EQ(r.value.find("seeds")->items.size(), 3u);
}

// --- canonical manifests ------------------------------------------------

TEST(ServiceManifest, CliAndJsonSpellingsHashIdentically) {
  // The same run described twice: applied directly (what mnp_sim_cli
  // does) and routed through the JSON request body (what mnp_fleet
  // submits). The canonical manifests must be byte-identical.
  harness::ExperimentConfig cli = small_config();

  const std::string body = service::run_request_json(kSmallRun, "", {5});
  const auto parsed = service::parse_run_request_text(body);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  ASSERT_EQ(parsed.request.seeds, std::vector<std::uint64_t>{5});

  EXPECT_EQ(service::canonical_manifest(cli, 5),
            service::canonical_manifest(parsed.request.cfg, 5));
  EXPECT_EQ(service::manifest_hash(cli, 5),
            service::manifest_hash(parsed.request.cfg, 5));
}

TEST(ServiceManifest, TypedJsonScalarsMatchTextualSpellings) {
  // {"rows": 12} (a JSON number) and {"rows": "12"} (the CLI's string)
  // must build the same config.
  const auto typed = service::parse_run_request_text(
      R"({"config": {"rows": 12, "spacing_ft": 12.5, "pipelining": false}})");
  const auto text = service::parse_run_request_text(
      R"({"config": {"rows": "12", "spacing_ft": "12.5",
          "pipelining": "false"}})");
  ASSERT_TRUE(typed.ok) << typed.error;
  ASSERT_TRUE(text.ok) << text.error;
  EXPECT_EQ(service::manifest_hash(typed.request.cfg, 1),
            service::manifest_hash(text.request.cfg, 1));
}

TEST(ServiceManifest, SeedAndEveryKnobChangeTheHash) {
  const harness::ExperimentConfig base = small_config();
  const std::uint64_t h = service::manifest_hash(base, 1);
  EXPECT_NE(h, service::manifest_hash(base, 2));

  // Flipping any request-surface knob must move the hash.
  const std::vector<std::pair<std::string, std::string>> knobs = {
      {"protocol", "deluge"}, {"mac", "tdma"},
      {"rows", "6"},          {"spacing_ft", "11"},
      {"range_ft", "30"},     {"pipelining", "false"},
      {"tie_break", "lifo"},  {"max_sim_time_s", "800"},
  };
  for (const auto& [key, value] : knobs) {
    harness::ExperimentConfig cfg = base;
    std::string error;
    ASSERT_TRUE(harness::apply_config_option(cfg, key, value, &error)) << error;
    EXPECT_NE(h, service::manifest_hash(cfg, 1)) << key << "=" << value;
  }
}

TEST(ServiceManifest, ScenarioEventsAreHashed) {
  const char* scn = "scenario kill-one\nat 10s kill 3\n";
  const auto with = service::parse_run_request_text(
      service::run_request_json(kSmallRun, scn, {1}));
  ASSERT_TRUE(with.ok) << with.error;
  const harness::ExperimentConfig plain = small_config();
  EXPECT_NE(service::manifest_hash(plain, 1),
            service::manifest_hash(with.request.cfg, 1));
}

TEST(ServiceManifest, SharedAssetsAreNotPartOfTheManifest) {
  harness::ExperimentConfig cfg = small_config();
  const std::uint64_t before = service::manifest_hash(cfg, 1);
  service::AssetCache cache;
  cache.attach_assets(cfg);
  ASSERT_NE(cfg.shared_topology, nullptr);
  ASSERT_NE(cfg.shared_image, nullptr);
  EXPECT_EQ(before, service::manifest_hash(cfg, 1));
}

TEST(ServiceManifest, RejectsUnknownOptions) {
  const auto r = service::parse_run_request_text(
      R"({"config": {"no_such_knob": 1}})");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("no_such_knob"), std::string::npos);
}

TEST(ServiceRequest, RejectsUnknownKeysAndNonIntegerSeeds) {
  // A misspelled top-level key used to be ignored, running (and deduping
  // as) the default config.
  const auto options = service::parse_run_request_text(
      R"({"options": {"rows": 3}})");
  EXPECT_FALSE(options.ok);
  EXPECT_NE(options.error.find("options"), std::string::npos);
  for (const char* body :
       {R"({"seed": -1})", R"({"seed": 1.5})", R"({"seed": "7"})",
        R"({"seeds": [1e300]})", R"({"seeds": [-2]})", R"({"seeds": ["1"]})",
        R"({"runs": 0})", R"({"runs": 2.5})", R"({"runs": 1e9})",
        R"({"config": {"rows": [12]}})", R"({"config": {"rows": null}})",
        R"({"config": {"rows": 70000}})"}) {
    EXPECT_FALSE(service::parse_run_request_text(body).ok) << body;
  }
  const auto ok = service::parse_run_request_text(R"({"seed": 7, "runs": 2})");
  ASSERT_TRUE(ok.ok) << ok.error;
  EXPECT_EQ(ok.request.seeds, (std::vector<std::uint64_t>{7, 8}));
}

// --- asset cache --------------------------------------------------------

TEST(ServiceAssets, InternsTopologiesImagesAndScenarios) {
  service::AssetCache cache;
  const auto g1 = cache.grid(5, 5, 10.0);
  const auto g2 = cache.grid(5, 5, 10.0);
  const auto g3 = cache.grid(5, 5, 10.5);
  EXPECT_EQ(g1.get(), g2.get());
  EXPECT_NE(g1.get(), g3.get());

  const auto i1 = cache.image(7, 2816, 128, 22);
  const auto i2 = cache.image(7, 2816, 128, 22);
  const auto i3 = cache.image(8, 2816, 128, 22);
  EXPECT_EQ(i1.get(), i2.get());
  EXPECT_NE(i1.get(), i3.get());

  const auto s1 = cache.scenario("scenario s\nat 1s kill 0\n");
  const auto s2 = cache.scenario("scenario s\nat 1s kill 0\n");
  EXPECT_EQ(s1.get(), s2.get());
  EXPECT_TRUE(s1->ok);
  const auto bad = cache.scenario("at nonsense\n");
  EXPECT_FALSE(bad->ok);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.topology_hits, 1u);
  EXPECT_EQ(stats.topology_misses, 2u);
  EXPECT_EQ(stats.image_hits, 1u);
  EXPECT_EQ(stats.image_misses, 2u);
  EXPECT_EQ(stats.scenario_hits, 1u);
  EXPECT_EQ(stats.scenario_misses, 2u);
}

TEST(ServiceAssets, SharedAssetRunsAreBitIdenticalToFreshRuns) {
  harness::ExperimentConfig fresh = small_config();
  fresh.seed = 11;
  const harness::RunResult a = harness::run_experiment(fresh);

  harness::ExperimentConfig shared = small_config();
  shared.seed = 11;
  service::AssetCache cache;
  cache.attach_assets(shared);
  const harness::RunResult b = harness::run_experiment(shared);

  EXPECT_EQ(a.completion_time, b.completion_time);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.completed_count, b.completed_count);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].completion, b.nodes[i].completion) << i;
    EXPECT_EQ(a.nodes[i].tx_total, b.nodes[i].tx_total) << i;
    EXPECT_DOUBLE_EQ(a.nodes[i].energy_nah, b.nodes[i].energy_nah) << i;
  }
}

TEST(ServiceAssets, MismatchedSharedAssetsAreIgnored) {
  // A shared topology that does not match rows/cols must not leak into
  // the run: the config fields stay authoritative.
  harness::ExperimentConfig cfg = small_config();
  cfg.seed = 11;
  service::AssetCache cache;
  cfg.shared_topology = cache.grid(8, 8, 15.0);  // wrong shape on purpose
  const harness::RunResult mismatched = harness::run_experiment(cfg);

  harness::ExperimentConfig plain = small_config();
  plain.seed = 11;
  const harness::RunResult reference = harness::run_experiment(plain);
  EXPECT_EQ(reference.completion_time, mismatched.completion_time);
  EXPECT_EQ(reference.transmissions, mismatched.transmissions);
}

// --- run store ----------------------------------------------------------

TEST(ServiceRunStore, DedupsByManifestHash) {
  service::RunStore store;
  const auto first = store.submit(0xabc, "{\"m\":1}", 0.0);
  EXPECT_TRUE(first.created);
  const auto dup = store.submit(0xabc, "{\"m\":1}", 1.0);
  EXPECT_FALSE(dup.created);
  EXPECT_EQ(first.id, dup.id);
  const auto other = store.submit(0xdef, "{\"m\":2}", 2.0);
  EXPECT_TRUE(other.created);
  EXPECT_NE(first.id, other.id);

  service::RunRecord record;
  ASSERT_TRUE(store.get(first.id, &record));
  EXPECT_EQ(record.dedup_hits, 1u);
  EXPECT_EQ(record.state, service::RunState::kQueued);
  EXPECT_FALSE(store.get(9999, nullptr));
}

TEST(ServiceRunStore, LifecycleAndProgress) {
  service::RunStore store;
  const auto sub = store.submit(1, "{}", 0.0);
  EXPECT_FALSE(store.wait_terminal(sub.id, 0));
  ASSERT_TRUE(store.mark_running(sub.id, 1.0));
  EXPECT_FALSE(store.mark_running(sub.id, 1.0));  // not queued anymore
  store.append_progress(sub.id, "{\"p\":1}");
  store.append_progress(sub.id, "{\"p\":2}");

  std::vector<std::string> lines;
  bool done = true;
  std::size_t cursor = store.wait_progress(sub.id, 0, 0, &lines, &done);
  EXPECT_EQ(cursor, 2u);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[1], "{\"p\":2}");
  EXPECT_FALSE(done);

  store.mark_done(sub.id, "{\"r\":1}", "{\"metrics\":1}", 2.0);
  EXPECT_TRUE(store.wait_terminal(sub.id, 0));
  store.wait_progress(sub.id, cursor, 0, nullptr, &done);
  EXPECT_TRUE(done);

  service::RunRecord record;
  ASSERT_TRUE(store.get(sub.id, &record));
  EXPECT_EQ(record.state, service::RunState::kDone);
  EXPECT_EQ(record.metrics_json, "{\"metrics\":1}");
}

// --- HTTP end-to-end ----------------------------------------------------

class FleetHttpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service::FleetServerOptions options;
    options.port = 0;  // ephemeral
    options.jobs = 2;
    options.progress_interval = sim::sec(5);
    server_ = std::make_unique<service::FleetServer>(options);
    std::string error;
    ASSERT_TRUE(server_->start(&error)) << error;
  }
  void TearDown() override { server_->stop(); }

  service::HttpResponse get(const std::string& target) {
    return service::http_request("127.0.0.1", server_->port(), "GET", target,
                                 "");
  }
  service::HttpResponse post(const std::string& target,
                             const std::string& body) {
    return service::http_request("127.0.0.1", server_->port(), "POST", target,
                                 body);
  }

  std::unique_ptr<service::FleetServer> server_;
};

TEST_F(FleetHttpTest, HealthVersionAndErrors) {
  const auto health = get("/healthz");
  ASSERT_TRUE(health.ok) << health.error;
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "{\"ok\":true}");

  const auto version = get("/version");
  ASSERT_TRUE(version.ok) << version.error;
  EXPECT_EQ(version.status, 200);
  const auto parsed = service::parse_json(version.body);
  ASSERT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.value.find("git_describe")->string,
            harness::build_git_describe());

  EXPECT_EQ(get("/no/such/endpoint").status, 404);
  EXPECT_EQ(post("/healthz", "").status, 405);
  EXPECT_EQ(post("/runs", "this is not json").status, 400);
  EXPECT_EQ(get("/runs/123456").status, 404);
}

TEST_F(FleetHttpTest, DedupServesBytesIdenticalToFreshSimulation) {
  // Submit three seeds, wait, and check each stored metrics export
  // byte-for-byte against a locally executed *observed* one-shot run of
  // the identical manifest — the full dedup contract: cache hits return
  // exactly what re-simulating would, and the server's trace-free
  // observation changes nothing.
  const std::string body = service::run_request_json(kSmallRun, "", {3, 4, 5});
  const auto submitted = post("/runs", body);
  ASSERT_TRUE(submitted.ok) << submitted.error;
  ASSERT_EQ(submitted.status, 200) << submitted.body;
  const auto parsed = service::parse_json(submitted.body);
  ASSERT_TRUE(parsed.ok);
  const auto* runs = parsed.value.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->items.size(), 3u);

  for (std::size_t i = 0; i < 3; ++i) {
    const auto& run = runs->items[i];
    EXPECT_FALSE(run.find("dedup")->boolean);
    const auto id = static_cast<std::uint64_t>(run.find("id")->number);
    const std::uint64_t seed = 3 + i;
    ASSERT_TRUE(server_->store().wait_terminal(id, 60000));

    service::RunRecord record;
    ASSERT_TRUE(server_->store().get(id, &record));
    ASSERT_EQ(record.state, service::RunState::kDone) << record.error;

    // Local reference: same config, CLI-style observed execution.
    harness::ExperimentConfig cfg = small_config();
    cfg.seed = seed;
    harness::Observation observation;
    (void)harness::run_experiment(cfg, &observation);
    std::ostringstream reference;
    harness::write_run_manifest(reference, cfg, seed, 1, observation);
    EXPECT_EQ(record.metrics_json, reference.str()) << "seed " << seed;

    // The HTTP surface serves those same bytes.
    const auto metrics = get("/runs/" + std::to_string(id) + "/metrics");
    ASSERT_TRUE(metrics.ok) << metrics.error;
    EXPECT_EQ(metrics.status, 200);
    EXPECT_EQ(metrics.body, record.metrics_json);
  }

  // Resubmission: every run is a dedup hit on the same ids, same bytes.
  const auto again = post("/runs", body);
  ASSERT_TRUE(again.ok) << again.error;
  const auto reparsed = service::parse_json(again.body);
  ASSERT_TRUE(reparsed.ok);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& run = reparsed.value.find("runs")->items[i];
    EXPECT_TRUE(run.find("dedup")->boolean);
    EXPECT_EQ(run.find("id")->number, runs->items[i].find("id")->number);
  }
}

TEST_F(FleetHttpTest, StatusAndStreamedMetricsEndWithTheManifest) {
  const auto submitted = post("/runs", service::run_request_json(
                                           kSmallRun, "", {21}));
  ASSERT_EQ(submitted.status, 200) << submitted.body;
  const auto parsed = service::parse_json(submitted.body);
  ASSERT_TRUE(parsed.ok);
  const auto id = static_cast<std::uint64_t>(
      parsed.value.find("runs")->items[0].find("id")->number);

  // Stream immediately: for an in-flight (or just-finished) run the body
  // is NDJSON whose final line is the metrics manifest.
  std::vector<std::string> lines;
  const auto streamed = service::http_stream_lines(
      "127.0.0.1", server_->port(), "/runs/" + std::to_string(id) + "/metrics",
      [&](std::string_view line) {
        lines.emplace_back(line);
        return true;
      });
  ASSERT_TRUE(streamed.ok) << streamed.error;
  EXPECT_EQ(streamed.status, 200);
  ASSERT_FALSE(lines.empty());

  service::RunRecord record;
  ASSERT_TRUE(server_->store().get(id, &record));
  ASSERT_EQ(record.state, service::RunState::kDone) << record.error;
  // The manifest is one newline-terminated line; streamed lines carry no
  // delimiter.
  EXPECT_EQ(lines.back() + "\n", record.metrics_json);
  // Any earlier lines are progress samples with monotone sim time.
  std::int64_t last_time = -1;
  for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
    const auto p = service::parse_json(lines[i]);
    ASSERT_TRUE(p.ok) << lines[i];
    const auto* t = p.value.find("sim_time_us");
    ASSERT_NE(t, nullptr);
    EXPECT_GT(static_cast<std::int64_t>(t->number), last_time);
    last_time = static_cast<std::int64_t>(t->number);
  }

  const auto status = get("/runs/" + std::to_string(id));
  ASSERT_EQ(status.status, 200);
  const auto sparsed = service::parse_json(status.body);
  ASSERT_TRUE(sparsed.ok);
  EXPECT_EQ(sparsed.value.find("state")->string, "done");
  EXPECT_TRUE(sparsed.value.find("result")->find("all_completed")->boolean);
}

TEST_F(FleetHttpTest, MetricszReportsSelfMetricsAndAssetStats) {
  (void)post("/runs", service::run_request_json(kSmallRun, "", {31, 32}));
  const auto res = get("/metricsz");
  ASSERT_TRUE(res.ok) << res.error;
  ASSERT_EQ(res.status, 200);
  const auto parsed = service::parse_json(res.body);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(static_cast<int>(parsed.value.find("schema_version")->number),
            obs::kTelemetrySchemaVersion);
  // Worker count honours the sweep harness's hardware clamp, so on a
  // 1-core host the requested 2 jobs become 1.
  EXPECT_EQ(static_cast<std::size_t>(parsed.value.find("workers")->number),
            server_->scheduler().workers());
  EXPECT_GE(server_->scheduler().workers(), 1u);
  EXPECT_GE(parsed.value.find("runs_total")->number, 2.0);
  const auto* metrics = parsed.value.find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_NE(metrics->find("fleet.runs_submitted"), nullptr);
  EXPECT_GE(metrics->find("fleet.runs_submitted")->find("total")->number, 2.0);
  ASSERT_NE(parsed.value.find("assets"), nullptr);
}

}  // namespace
}  // namespace mnp
