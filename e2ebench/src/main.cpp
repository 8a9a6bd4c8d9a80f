// e2e_bench: one benchmark run of one workload.
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 times whole run_experiment samples for S seconds and reports
// the end-to-end metrics. --trace 1 runs the same untraced samples (the
// fidelity reference and the overhead baseline), then one traced run of
// the decorated assembly, and reports the per-layer metrics. Every sample
// is checked; stdout ends with a detail line (configs, digest, counts,
// raw timings) and the result line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <malloc.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "traced.hpp"
#include "workloads.hpp"

namespace {

using e2ebench::now_ns;
using mnp::harness::ExperimentConfig;
using mnp::harness::RunResult;

/// A median of at least three samples, so one disturbed sample cannot
/// set the run's figure.
constexpr std::size_t kMinSamples = 3;
constexpr std::size_t kSetupRuns = 7;
constexpr std::size_t kMaxSetupRuns = 201;
constexpr double kSetupSeconds = 0.5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
};

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0 &&
         (args.trace == 0 || args.trace == 1);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string number_list(const std::vector<double>& values) {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", values[i]);
    out += buf;
  }
  return out + "]";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  char buf[160];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit);
    out += buf;
  }
  return out + "}";
}

/// The untraced samples of one run: every sample's results must repeat the
/// first sample's byte for byte.
struct Samples {
  std::vector<std::string> reference;  // encode() per config, first sample
  std::vector<RunResult> results;      // first sample
  std::vector<double> wall_s;
  std::vector<double> tx_per_s;
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;

  void fail(const std::string& why) {
    if (failures.size() < 8) failures.push_back(why);
  }

  /// Checks one result of config `i`; false (and a recorded failure) when
  /// it fails a correctness check or differs from the reference.
  bool check(std::size_t i, const RunResult& r, const char* what) {
    bool ok = true;
    std::string bytes = e2ebench::encode(r);
    if (i >= reference.size()) {
      reference.push_back(std::move(bytes));
      results.push_back(r);
    } else if (bytes != reference[i]) {
      fail(std::string(what) + ": RunResult differs from the first sample");
      ok = false;
    }
    const std::string err = e2ebench::check_run(r);
    if (!err.empty()) {
      fail(std::string(what) + ": " + err);
      ok = false;
    }
    return ok;
  }

  void run(const std::vector<ExperimentConfig>& configs, double seconds) {
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    do {
      double wall = 0.0;
      double tx = 0.0;
      bool ok = true;
      for (std::size_t i = 0; i < configs.size(); ++i) {
        const std::int64_t t0 = now_ns();
        const RunResult r = mnp::harness::run_experiment(configs[i]);
        wall += static_cast<double>(now_ns() - t0) / 1e9;
        tx += static_cast<double>(r.transmissions);
        ok = check(i, r, "sample") && ok;
      }
      ++attempted;
      if (!ok) ++failed;
      wall_s.push_back(wall);
      tx_per_s.push_back(tx / wall);
    } while (now_ns() < deadline || wall_s.size() < kMinSamples);
  }

  std::string digest() const {
    std::string all;
    for (const auto& bytes : reference) all += bytes;
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, e2ebench::fnv1a(all));
    return buf;
  }
};

/// Set-up cost: zero-horizon run_experiment calls (topology, link model,
/// channel, nodes, protocol install, scenario arm; no event executes),
/// repeated at least kSetupRuns times and for at least kSetupSeconds.
/// Free heap memory goes back to the kernel before each call, so every
/// repetition pays for faulting its memory in, as a fresh process does.
/// Otherwise the cost flips between modes with the heap's layout (10x10:
/// ~35 ms faulting, ~7 or ~3.5 ms reusing). Samples skip the trim: there
/// the faults are a few percent of the time, and the extra memory traffic
/// only adds noise.
std::vector<double> time_setup(const std::vector<ExperimentConfig>& configs) {
  std::vector<double> out;
  const std::int64_t until =
      now_ns() + static_cast<std::int64_t>(kSetupSeconds * 1e9);
  while (out.size() < kSetupRuns ||
         (now_ns() < until && out.size() < kMaxSetupRuns)) {
    double total = 0.0;
    for (ExperimentConfig cfg : configs) {
      cfg.max_sim_time = 0;
      malloc_trim(0);
      const std::int64_t t0 = now_ns();
      (void)mnp::harness::run_experiment(cfg);
      total += static_cast<double>(now_ns() - t0) / 1e9;
    }
    out.push_back(total);
  }
  return out;
}

std::vector<Metric> end_to_end(const Samples& s, const std::vector<double>& setup) {
  // Deterministic paper outputs: mean over the sample's runs.
  double completion = 0.0, msgs = 0.0, radio = 0.0, energy = 0.0;
  for (const RunResult& r : s.results) {
    completion += mnp::sim::to_seconds(r.completion_time);
    msgs += r.avg_messages_sent();
    radio += r.avg_active_radio_s();
    energy += ratio(r.total_energy_nah(), static_cast<double>(r.nodes.size()));
  }
  const double runs = static_cast<double>(std::max<std::size_t>(1, s.results.size()));
  return {
      {"wall_s", median(s.wall_s), "s"},
      {"setup_s", median(setup), "s"},
      {"tx_per_s", median(s.tx_per_s), "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"pass_frac", 1.0 - ratio(s.failed, s.attempted), "frac"},
      {"sim_completion_s", completion / runs, "s"},
      {"msgs_per_node", msgs / runs, "count"},
      {"active_radio_s", radio / runs, "s"},
      {"energy_nah_per_node", energy / runs, "nAh"},
  };
}

std::vector<Metric> per_layer(const e2ebench::Tracer& t, double traced_wall_s,
                              double untraced_median_s) {
  const double tx = static_cast<double>(t.tx);
  const auto per_call = [](const e2ebench::LayerTime& l) {
    return ratio(static_cast<double>(l.self_ns), static_cast<double>(l.calls));
  };
  const auto d = [](auto v) { return static_cast<double>(v); };
  std::vector<Metric> m = {
      {"sim.events", d(t.events()), "count"},
      {"sim.events_per_tx", ratio(d(t.events()), tx), "count/tx"},
      {"sim.pending_peak", d(t.pending_peak), "count"},
      {"sim.tombstones_peak", d(t.tombstones_peak), "count"},
      {"sim.step_ns", ratio(d(t.step_ns), d(t.events())), "ns/event"},
      {"sim.other_self_ns", ratio(d(t.other.self_ns), tx), "ns/tx"},
      {"sim.other_share", ratio(d(t.other.self_ns), d(t.step_ns)), "frac"},
      {"chan.tx", tx, "count"},
      {"chan.deliveries_per_tx", ratio(d(t.deliveries), tx), "count/tx"},
      {"chan.collisions_per_tx", ratio(d(t.collisions), tx), "count/tx"},
      {"chan.bulk_overlaps", d(t.bulk_overlaps), "count"},
      {"chan.inflight_at_tx_mean", ratio(d(t.inflight_sum), tx), "count"},
      {"chan.inflight_at_tx_max", d(t.inflight_max), "count"},
      {"chan.tx_start_self_ns", ratio(d(t.tx_start.self_ns), tx), "ns/tx"},
      {"chan.tx_end_self_ns", ratio(d(t.tx_end.self_ns), tx), "ns/tx"},
      {"chan.tx_start_share", ratio(d(t.tx_start.self_ns), d(t.step_ns)), "frac"},
      {"chan.tx_end_share", ratio(d(t.tx_end.self_ns), d(t.step_ns)), "frac"},
      {"chan.cache_repairs", d(t.cache_repairs), "count"},
      {"chan.cache_invalidations", d(t.cache_invalidations), "count"},
      {"link.calls_setup", d(t.link_setup.calls), "count"},
      {"link.calls_run", d(t.link_run.calls), "count"},
      {"link.run_ns", per_call(t.link_run), "ns/call"},
      {"mac.send_calls", d(t.mac_send.calls), "count"},
      {"mac.send_ns", per_call(t.mac_send), "ns/call"},
      {"mac.drop_frac", ratio(d(t.mac_drops), d(t.mac_send.calls)), "frac"},
      {"mac.queue_depth_peak", d(t.mac_queue_peak), "count"},
      {"stats.on_transmit_calls", d(t.stats_transmit.calls), "count"},
      {"stats.on_transmit_ns", per_call(t.stats_transmit), "ns/call"},
      {"stats.on_deliver_calls", d(t.stats_deliver.calls), "count"},
      {"stats.on_deliver_ns", per_call(t.stats_deliver), "ns/call"},
      {"stats.on_collision_calls", d(t.stats_collision.calls), "count"},
      {"stats.on_collision_ns", per_call(t.stats_collision), "ns/call"},
  };
  static const char* kProtocols[] = {"mnp", "deluge", "moap", "xnp", "ncast"};
  for (int p = 0; p < 5; ++p) {
    if (p == static_cast<int>(mnp::harness::Protocol::kXnp)) continue;
    const std::string prefix = std::string("proto.") + kProtocols[p];
    m.push_back({prefix + ".on_packet_calls", d(t.on_packet[p].calls), "count"});
    m.push_back({prefix + ".on_packet_ns", per_call(t.on_packet[p]), "ns/call"});
  }
  m.push_back({"frame.node_allocs_per_tx", ratio(d(t.frame_node_allocs), tx), "count/tx"});
  m.push_back({"frame.payload_allocs_per_tx", ratio(d(t.frame_payload_allocs), tx), "count/tx"});
  m.push_back({"heap.allocs_per_tx", ratio(d(t.heap_allocs), tx), "count/tx"});
  m.push_back({"scenario.injected", d(t.scenario_injected), "count"});
  m.push_back({"trace.overhead", ratio(traced_wall_s, untraced_median_s), "x"});
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  const std::vector<ExperimentConfig> configs =
      e2ebench::workload_configs(args.workload, args.seed);
  if (configs.empty()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  std::vector<double> setup;
  if (args.trace == 0) setup = time_setup(configs);

  Samples samples;
  samples.run(configs, args.seconds);

  std::vector<Metric> metrics;
  std::string traced_detail;
  if (args.trace == 0) {
    metrics = end_to_end(samples, setup);
  } else {
    e2ebench::Tracer tracer;
    bool ok = true;
    const std::int64_t t0 = now_ns();
    for (std::size_t i = 0; i < configs.size(); ++i) {
      const RunResult r = e2ebench::run_traced(configs[i], tracer);
      ok = samples.check(i, r, "traced run") && ok;
    }
    const double traced_s = static_cast<double>(now_ns() - t0) / 1e9;
    ++samples.attempted;
    if (!ok) ++samples.failed;
    metrics = per_layer(tracer, traced_s, median(samples.wall_s));
    char buf[64];
    std::snprintf(buf, sizeof buf, ", \"traced_wall_s\": %.17g", traced_s);
    traced_detail = buf;
  }

  const RunResult& first = samples.results.front();  // run() ran >= 1 sample
  std::string configs_json = "[";
  for (std::size_t i = 0; i < configs.size(); ++i) {
    configs_json += (i ? ", " : "") + e2ebench::describe(configs[i]);
  }
  configs_json += "]";
  std::string failures_json = "[";
  for (std::size_t i = 0; i < samples.failures.size(); ++i) {
    failures_json += (i ? ", \"" : "\"") + samples.failures[i] + "\"";
  }
  failures_json += "]";
  std::uint64_t tx = 0, deliveries = 0, collisions = 0, injected = 0;
  for (const RunResult& r : samples.results) {
    tx += r.transmissions;
    deliveries += r.deliveries;
    collisions += r.collisions;
    injected += r.scenario_injected;
  }
  std::printf(
      "{\"detail\": {\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"trace\": %d, \"configs\": %s, \"digest\": \"%s\", "
      "\"counts\": {\"chan.tx\": %" PRIu64 ", \"chan.deliveries\": %" PRIu64
      ", \"chan.collisions\": %" PRIu64 ", \"scenario.injected\": %" PRIu64
      ", \"completion_us\": %lld}, \"wall_s\": %s, \"setup_s\": %s%s, "
      "\"failures\": %s}}\n",
      args.workload.c_str(), args.seed, args.trace, configs_json.c_str(),
      samples.digest().c_str(), tx, deliveries, collisions, injected,
      static_cast<long long>(first.completion_time),
      number_list(samples.wall_s).c_str(), number_list(setup).c_str(),
      traced_detail.c_str(), failures_json.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n",
              samples.failed == 0 ? "true" : "false", samples.attempted,
              samples.failed, metrics_json(metrics).c_str());
  std::fflush(stdout);
  return 0;
}
