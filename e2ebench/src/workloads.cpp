#include "workloads.hpp"

#include <cstdio>
#include <cstring>
#include <numeric>
#include <type_traits>
#include <utility>

#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace e2ebench {

using mnp::harness::ExperimentConfig;
using mnp::harness::Protocol;
using mnp::harness::RunResult;

namespace {

template <typename T>
void put(std::string& out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

}  // namespace

ExperimentConfig grid_config(Protocol protocol, std::size_t side,
                             std::uint16_t segments, std::uint64_t seed) {
  ExperimentConfig cfg;
  cfg.protocol = protocol;
  cfg.rows = side;
  cfg.cols = side;
  cfg.seed = seed;
  cfg.set_program_segments(segments);
  return cfg;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "mnp_dense_30x30", "mnp_long_10x10", "mnp_churn_30x30",
      "baselines_20x20"};
  return names;
}

std::vector<ExperimentConfig> workload_configs(const std::string& workload,
                                               std::uint64_t seed) {
  if (workload == "mnp_dense_30x30") {
    return {grid_config(Protocol::kMnp, 30, 5, seed)};
  }
  if (workload == "mnp_long_10x10") {
    return {grid_config(Protocol::kMnp, 10, 40, seed)};
  }
  if (workload == "mnp_churn_30x30") {
    ExperimentConfig cfg = grid_config(Protocol::kMnp, 30, 3, seed);
    cfg.scenario = churn_scenario(cfg.rows, cfg.cols, cfg.spacing_ft, seed);
    return {cfg};
  }
  if (workload == "baselines_20x20") {
    return {grid_config(Protocol::kDeluge, 20, 2, seed),
            grid_config(Protocol::kMoap, 20, 2, seed),
            grid_config(Protocol::kNcast, 20, 2, seed)};
  }
  return {};
}

mnp::scenario::Scenario churn_scenario(std::size_t rows, std::size_t cols,
                                       double spacing_ft, std::uint64_t seed) {
  using mnp::net::NodeId;
  using mnp::sim::sec;
  // A stream of its own, so the schedule never shares draws with the run.
  mnp::sim::Rng rng(seed ^ 0xC42E5C3A1ULL);
  const std::size_t n = rows * cols;
  mnp::scenario::ScenarioBuilder b;

  // Fixed fault instants keep the completion time comparable across
  // seeds; the seed picks the crash victims (through the run's own RNG),
  // the movers and their paths.
  b.crash_fraction(sec(180), 0.2, sec(45));

  std::vector<NodeId> top;
  std::vector<NodeId> bottom;
  for (NodeId id = 0; id < n; ++id) {
    (id / cols < rows / 2 ? top : bottom).push_back(id);
  }
  b.partition(sec(480), sec(30), {std::move(top), std::move(bottom)});

  // Distinct movers drawn by partial Fisher-Yates over the non-base ids;
  // each glides to a random point of the field.
  std::vector<NodeId> ids(n - 1);
  std::iota(ids.begin(), ids.end(), NodeId{1});
  const double width = static_cast<double>(cols - 1) * spacing_ft;
  const double height = static_cast<double>(rows - 1) * spacing_ft;
  for (std::size_t i = 0; i < n / 20; ++i) {
    const auto j = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(i), static_cast<std::int64_t>(ids.size() - 1)));
    std::swap(ids[i], ids[j]);
    const mnp::sim::Time at = sec(rng.uniform_int(60, 900));
    const double x = rng.uniform_real(0.0, width);
    const double y = rng.uniform_real(0.0, height);
    b.move(at, ids[i], x, y, sec(rng.uniform_int(5, 15)));
  }
  return b.build("e2e-churn-" + std::to_string(seed));
}

std::string encode(const RunResult& r) {
  std::string out;
  out.reserve(64 + r.nodes.size() * 112 + r.timeline.size() * 40);
  put(out, r.rows);
  put(out, r.cols);
  put(out, static_cast<std::uint8_t>(r.all_completed));
  put(out, r.completed_count);
  put(out, r.completion_time);
  put(out, r.measured_at);
  put(out, r.nodes.size());
  for (const auto& n : r.nodes) {
    put(out, n.completion);
    put(out, n.active_radio);
    put(out, n.active_radio_after_first_adv);
    put(out, n.parent);
    put(out, n.became_sender);
    put(out, n.tx_total);
    put(out, n.rx_total);
    put(out, n.tx_data);
    put(out, n.tx_adv);
    put(out, n.tx_req);
    put(out, n.eeprom_writes);
    put(out, n.collisions_suffered);
    put(out, n.energy_nah);
    put(out, static_cast<std::uint8_t>(n.image_verified));
  }
  put(out, r.sender_order.size());
  for (const auto id : r.sender_order) put(out, id);
  put(out, r.timeline.size());
  for (const auto& [minute, counts] : r.timeline) {
    put(out, minute);
    put(out, counts);
  }
  put(out, r.transmissions);
  put(out, r.deliveries);
  put(out, r.collisions);
  put(out, r.bulk_overlaps);
  put(out, r.dead_nodes);
  put(out, r.scenario_injected);
  put(out, r.scenario_error.size());
  out += r.scenario_error;
  return out;
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string check_run(const RunResult& r) {
  if (!r.scenario_error.empty()) return "scenario error: " + r.scenario_error;
  if (r.nodes.size() != r.rows * r.cols) return "node count mismatch";
  if (!r.all_completed) {
    return "not all nodes completed (" + std::to_string(r.completed_count) +
           "/" + std::to_string(r.nodes.size()) + ")";
  }
  for (std::size_t id = 0; id < r.nodes.size(); ++id) {
    if (r.nodes[id].completion != mnp::sim::kNever &&
        !r.nodes[id].image_verified) {
      return "node " + std::to_string(id) + " completed with a bad image";
    }
  }
  return {};
}

std::string describe(const ExperimentConfig& cfg) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"protocol\": \"%s\", \"rows\": %zu, \"cols\": %zu, "
                "\"spacing_ft\": %g, \"range_ft\": %g, \"empirical_links\": %s, "
                "\"program_bytes\": %zu, \"seed\": %llu, "
                "\"scenario_events\": %zu}",
                mnp::harness::protocol_name(cfg.protocol), cfg.rows, cfg.cols,
                cfg.spacing_ft, cfg.range_ft,
                cfg.empirical_links ? "true" : "false", cfg.program_bytes,
                static_cast<unsigned long long>(cfg.seed),
                cfg.scenario.events().size());
  return buf;
}

}  // namespace e2ebench
