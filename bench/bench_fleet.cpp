// Fleet-service benchmark (DESIGN.md §14). Two claims are gated here and
// written to BENCH_fleet.json (committed, so the trajectory is visible
// across PRs):
//
//  1. Dedup: a cache hit — resubmitting a manifest the store already
//     executed and fetching its metrics over HTTP — is served >= 100x
//     faster than re-simulating that manifest. This is the run store's
//     reason to exist: sweep campaigns resubmit aggressively and pay
//     socket latency, not simulator time.
//  2. Fleet throughput + fidelity: >= 8 concurrent client threads submit
//     >= 64 distinct queued runs over loopback HTTP; every stored metrics
//     export is byte-identical to a sequential one-shot CLI-style
//     execution of the same manifest. Concurrency changes wall-clock
//     only, never a byte of results.
//
// `bench_fleet --perf-json[=DIR]` writes DIR/BENCH_fleet.json and exits
// nonzero when either gate fails. The default invocation runs a reduced
// dedup check only.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/config_schema.hpp"
#include "harness/experiment.hpp"
#include "harness/observe.hpp"
#include "service/http_client.hpp"
#include "service/json.hpp"
#include "service/run_request.hpp"
#include "service/server.hpp"

namespace {

using namespace mnp;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// The dedup half uses a run big enough that re-simulating it costs
// hundreds of milliseconds; the fleet half uses the smallest interesting
// grid so 64 runs finish quickly.
const std::vector<std::pair<std::string, std::string>> kDedupRun = {
    {"rows", "10"}, {"cols", "10"}, {"segments", "2"},
};
const std::vector<std::pair<std::string, std::string>> kFleetRun = {
    {"rows", "5"}, {"cols", "5"}, {"segments", "1"},
    {"max_sim_time_s", "900"},
};

harness::ExperimentConfig config_of(
    const std::vector<std::pair<std::string, std::string>>& options,
    std::uint64_t seed) {
  harness::ExperimentConfig cfg;
  std::string error;
  for (const auto& [key, value] : options) {
    if (!harness::apply_config_option(cfg, key, value, &error)) {
      std::fprintf(stderr, "bench_fleet: bad option: %s\n", error.c_str());
      std::exit(1);
    }
  }
  cfg.seed = seed;
  return cfg;
}

/// CLI-style reference execution: observed one-shot run, manifest bytes
/// exactly as `mnp_sim_cli --metrics-out` would write them.
std::string reference_metrics(const harness::ExperimentConfig& cfg) {
  harness::Observation observation;
  (void)harness::run_experiment(cfg, &observation);
  std::ostringstream os;
  harness::write_run_manifest(os, cfg, cfg.seed, 1, observation);
  return os.str();
}

std::uint64_t first_run_id(const std::string& body) {
  const auto parsed = service::parse_json(body);
  if (!parsed.ok) return 0;
  const auto* runs = parsed.value.find("runs");
  if (runs == nullptr || runs->items.empty()) return 0;
  const auto* id = runs->items[0].find("id");
  return id != nullptr ? static_cast<std::uint64_t>(id->number) : 0;
}

struct DedupResult {
  double fresh_ms = 0.0;    // one local re-simulation of the manifest
  double dedup_ms = 0.0;    // median resubmit+fetch HTTP round trip
  double speedup = 0.0;
  bool gate = false;
};

DedupResult measure_dedup(service::FleetServer& server) {
  const std::uint16_t port = server.port();
  const std::string body = service::run_request_json(kDedupRun, "", {7});

  // Prime the store with the real execution.
  const auto submitted =
      service::http_request("127.0.0.1", port, "POST", "/runs", body);
  const std::uint64_t id = first_run_id(submitted.body);
  if (id == 0 || !server.store().wait_terminal(id, 600000)) {
    std::fprintf(stderr, "bench_fleet: priming run did not finish\n");
    std::exit(1);
  }

  DedupResult out;
  // Cost of actually re-simulating this manifest (what a cache miss pays).
  {
    const auto start = std::chrono::steady_clock::now();
    (void)reference_metrics(config_of(kDedupRun, 7));
    out.fresh_ms = ms_since(start);
  }
  // Cost of a dedup hit: resubmit the same manifest, fetch the stored
  // bytes. Median of 20 full HTTP round trips (two connections each).
  std::vector<double> trips;
  const std::string target = "/runs/" + std::to_string(id) + "/metrics";
  for (int i = 0; i < 20; ++i) {
    const auto start = std::chrono::steady_clock::now();
    const auto again =
        service::http_request("127.0.0.1", port, "POST", "/runs", body);
    const auto metrics =
        service::http_request("127.0.0.1", port, "GET", target, "");
    trips.push_back(ms_since(start));
    if (again.status != 200 || metrics.status != 200 ||
        metrics.body.empty()) {
      std::fprintf(stderr, "bench_fleet: dedup round trip failed\n");
      std::exit(1);
    }
  }
  std::sort(trips.begin(), trips.end());
  out.dedup_ms = trips[trips.size() / 2];
  out.speedup = out.dedup_ms > 0.0 ? out.fresh_ms / out.dedup_ms : 0.0;
  out.gate = out.speedup >= 100.0;
  return out;
}

struct FleetResult {
  std::size_t clients = 0;
  std::size_t runs = 0;
  std::size_t identical = 0;
  double submit_to_done_ms = 0.0;
  bool gate = false;
};

FleetResult measure_fleet(service::FleetServer& server, std::size_t clients,
                          std::size_t runs) {
  const std::uint16_t port = server.port();
  FleetResult out;
  out.clients = clients;
  out.runs = runs;

  // Each client thread submits its own slice of distinct seeds, then
  // polls its runs to completion and fetches their metrics.
  std::vector<std::vector<std::string>> fetched(clients);
  std::vector<std::vector<std::uint64_t>> seeds(clients);
  for (std::size_t r = 0; r < runs; ++r) {
    seeds[r % clients].push_back(1000 + r);
  }

  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([c, port, &seeds, &fetched] {
      const auto submitted = service::http_request(
          "127.0.0.1", port, "POST", "/runs",
          service::run_request_json(kFleetRun, "", seeds[c]));
      const auto parsed = service::parse_json(submitted.body);
      const auto* run_list =
          parsed.ok ? parsed.value.find("runs") : nullptr;
      if (run_list == nullptr) return;
      for (const auto& run : run_list->items) {
        const auto id =
            static_cast<std::uint64_t>(run.find("id")->number);
        const std::string target = "/runs/" + std::to_string(id);
        for (;;) {
          const auto status =
              service::http_request("127.0.0.1", port, "GET", target, "");
          const auto sp = service::parse_json(status.body);
          const auto* state = sp.ok ? sp.value.find("state") : nullptr;
          if (state != nullptr &&
              (state->string == "done" || state->string == "failed")) {
            break;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        const auto metrics = service::http_request(
            "127.0.0.1", port, "GET", target + "/metrics", "");
        fetched[c].push_back(metrics.body);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  out.submit_to_done_ms = ms_since(start);

  // Sequential one-shot references, compared byte-for-byte.
  for (std::size_t c = 0; c < clients; ++c) {
    for (std::size_t i = 0; i < seeds[c].size(); ++i) {
      if (i < fetched[c].size() &&
          fetched[c][i] == reference_metrics(config_of(kFleetRun, seeds[c][i]))) {
        ++out.identical;
      }
    }
  }
  out.gate = out.identical == runs;
  return out;
}

int run_perf_json(const std::string& dir) {
  service::FleetServerOptions options;
  options.port = 0;
  options.jobs = 0;  // MNP_SWEEP_JOBS + hardware clamp, like run_sweep
  options.progress_interval = sim::sec(30);
  service::FleetServer server(options);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "bench_fleet: %s\n", error.c_str());
    return 1;
  }

  const DedupResult dedup = measure_dedup(server);
  std::printf(
      "dedup: fresh simulation %.1f ms, cached round trip %.3f ms "
      "(%.0fx, gate >= 100x: %s)\n",
      dedup.fresh_ms, dedup.dedup_ms, dedup.speedup,
      dedup.gate ? "pass" : "FAIL");

  const FleetResult fleet = measure_fleet(server, 8, 64);
  std::printf(
      "fleet: %zu runs from %zu clients in %.0f ms, %zu/%zu byte-identical "
      "to sequential one-shot runs (gate: %s)\n",
      fleet.runs, fleet.clients, fleet.submit_to_done_ms, fleet.identical,
      fleet.runs, fleet.gate ? "pass" : "FAIL");

  const std::string path = dir + "/BENCH_fleet.json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"benchmark\": \"fleet\",\n"
      "  \"dedup\": {\n"
      "    \"config\": \"10x10 grid, 2 segments, seed 7\",\n"
      "    \"fresh_simulation_ms\": %.1f,\n"
      "    \"cached_roundtrip_ms\": %.3f,\n"
      "    \"speedup\": %.0f\n"
      "  },\n"
      "  \"fleet\": {\n"
      "    \"config\": \"5x5 grid, 1 segment, seeds 1000..1063\",\n"
      "    \"clients\": %zu,\n"
      "    \"runs\": %zu,\n"
      "    \"workers\": %zu,\n"
      "    \"submit_to_done_ms\": %.0f,\n"
      "    \"byte_identical\": %zu\n"
      "  },\n"
      "  \"gate_dedup_100x\": %s,\n"
      "  \"gate_fleet_byte_identical\": %s\n"
      "}\n",
      dedup.fresh_ms, dedup.dedup_ms, dedup.speedup, fleet.clients,
      fleet.runs, server.scheduler().workers(), fleet.submit_to_done_ms,
      fleet.identical, dedup.gate ? "true" : "false",
      fleet.gate ? "true" : "false");
  std::fclose(f);
  std::printf("bench_fleet: %s\n", path.c_str());
  server.stop();

  int rc = 0;
  if (!dedup.gate) {
    std::fprintf(stderr,
                 "bench_fleet: dedup speedup %.0fx below the 100x gate\n",
                 dedup.speedup);
    rc = 1;
  }
  if (!fleet.gate) {
    std::fprintf(stderr,
                 "bench_fleet: %zu/%zu fleet results byte-identical\n",
                 fleet.identical, fleet.runs);
    rc = 1;
  }
  return rc;
}

int run_quick() {
  service::FleetServerOptions options;
  options.port = 0;
  service::FleetServer server(options);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "bench_fleet: %s\n", error.c_str());
    return 1;
  }
  const DedupResult dedup = measure_dedup(server);
  std::printf("dedup: fresh %.1f ms, cached %.3f ms (%.0fx)\n",
              dedup.fresh_ms, dedup.dedup_ms, dedup.speedup);
  server.stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (!std::strncmp(argv[i], "--perf-json", 11)) {
      const char* eq = std::strchr(argv[i], '=');
      return run_perf_json(eq ? eq + 1 : ".");
    }
  }
  return run_quick();
}
