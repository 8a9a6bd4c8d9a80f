// ScenarioEngine: binds a Scenario to a live Network + Simulator and
// injects its events at the scheduled instants.
//
// Determinism: the engine forks its own RNG stream once at construction
// (crash-fraction victim selection draws from it and nothing else), and
// every injection is a pre-scheduled closure on the simulation scheduler,
// so an armed scenario perturbs nothing except through the world
// mutations themselves — two runs with the same (seed, config, scenario)
// replay bit-identically, observed or not.
//
// Every injection is recorded as a trace::EventKind::kScenario event
// (details like "kill 5", "partition on" — the " on"/" off" suffix pair
// is what the Perfetto exporter turns into fault-window slices) and
// counted under scenario.* metrics in the network's registry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "node/network.hpp"
#include "obs/metrics.hpp"
#include "scenario/scenario.hpp"
#include "scenario/scenario_link_model.hpp"
#include "sim/rng.hpp"
#include "trace/event_log.hpp"

namespace mnp::scenario {

class ScenarioEngine {
 public:
  /// `links` may be null when the scenario has no partition/degrade
  /// events (arm() rejects the combination otherwise). Registers the
  /// scenario.* counters in the network's registry; the trace sink is
  /// optional and read from the network's stats collector.
  /// `protect` (usually the base station) is never picked by
  /// crash-fraction events — killing the image source before anyone
  /// holds a copy would make every churn scenario trivially divergent.
  ScenarioEngine(const Scenario& scenario, node::Network& network,
                 ScenarioLinkModel* links,
                 net::NodeId protect = net::kNoNode);

  ScenarioEngine(const ScenarioEngine&) = delete;
  ScenarioEngine& operator=(const ScenarioEngine&) = delete;

  /// Validates the scenario against the network (node ids in range,
  /// partition groups disjoint, link mutations only with a decorator) and
  /// pre-schedules every injection. False + `*error` on a bad scenario.
  /// Call once, after any event log is attached and before running.
  bool arm(std::string* error);

  /// Latest instant the schedule mutates the world (battery monitors are
  /// open-ended and excluded); convergence checks gate on this so a run
  /// cannot be declared done while a partition window is still closing.
  sim::Time last_activity() const { return last_activity_; }

  /// Injections performed so far (one kill/reboot/window-edge/arrival
  /// each; mobility steps in between are not counted).
  std::uint64_t injected() const { return metrics_.total(m_events_); }

  /// True when the schedule is exhausted and every node is either dead or
  /// holds the complete image — the scenario-aware run-end predicate.
  /// The scan resumes at the node that lagged on the previous call, so a
  /// laggard that still lags answers "no" in O(1); only a full pass
  /// answers "yes". Worst case O(N) per call; over a run, one check per
  /// call plus up to N each time the remembered laggard catches up.
  bool converged() const;

 private:
  void record(net::NodeId node, const std::string& detail);
  void kill_node(net::NodeId id, sim::Time down_for);
  void reboot_node(net::NodeId id);
  void crash_fraction(double fraction, sim::Time down_for);
  void watch_battery(net::NodeId id, double budget_nah);
  void start_move(const ScenarioEvent& e);

  const Scenario& scenario_;
  node::Network& network_;
  ScenarioLinkModel* links_;
  net::NodeId protect_;
  sim::Rng rng_;
  sim::Time last_activity_ = 0;
  /// Where converged() starts its scan: the node that lagged last time.
  mutable std::size_t resume_ = 0;

  obs::MetricsRegistry& metrics_;
  obs::MetricsRegistry::Counter m_events_;
  obs::MetricsRegistry::Counter m_kills_;
  obs::MetricsRegistry::Counter m_reboots_;
  obs::MetricsRegistry::Counter m_moves_;
};

}  // namespace mnp::scenario
