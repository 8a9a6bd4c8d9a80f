#include "scenario/scenario_engine.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "node/stats.hpp"

namespace mnp::scenario {

namespace {

/// Salt for the engine's private RNG stream. Forked once at construction
/// (after the harness's link-model fork), so arming a scenario never
/// perturbs any other module's random sequence.
constexpr std::uint64_t kScenarioRngSalt = 0x5CE7A210ULL;

/// Mobility interpolation step. Coarser than packet timescales (so moves
/// cost O(seconds) events, not O(packets)) but fine enough that a node
/// crossing the field visits every intermediate neighborhood.
constexpr sim::Time kMoveStep = sim::sec(1);

}  // namespace

ScenarioEngine::ScenarioEngine(const Scenario& scenario,
                               node::Network& network,
                               ScenarioLinkModel* links, net::NodeId protect)
    : scenario_(scenario),
      network_(network),
      links_(links),
      protect_(protect),
      rng_(network.simulator().fork_rng(kScenarioRngSalt)) {}

bool ScenarioEngine::arm(std::string* error) {
  const auto fail = [error](const std::string& message) {
    if (error) *error = message;
    return false;
  };
  const std::size_t n = network_.size();
  // A waypoint stays on the field node positions may occupy, so mobility
  // keeps the spatial grid's cell coordinates in range (false for NaN and
  // infinities too).
  const auto on_field = [](double v) {
    return std::abs(v) <= net::kMaxCoordinateFt;
  };

  for (const auto& e : scenario_.events()) {
    switch (e.kind) {
      case EventKind::kKill:
      case EventKind::kReboot:
      case EventKind::kBatteryBudget:
      case EventKind::kMove:
        if (e.node >= n) {
          return fail(std::string(to_string(e.kind)) + ": node " +
                      std::to_string(e.node) + " out of range");
        }
        if (e.kind == EventKind::kMove && !(on_field(e.x) && on_field(e.y))) {
          return fail("move: waypoint coordinates must be finite and within " +
                      std::to_string(static_cast<std::int64_t>(
                          net::kMaxCoordinateFt)) +
                      " ft of the origin");
        }
        break;
      case EventKind::kCrashFraction:
        if (e.value <= 0.0 || e.value > 1.0) {
          return fail("crash-fraction: fraction must be in (0, 1]");
        }
        break;
      case EventKind::kPartition: {
        if (!links_) return fail("partition: scenario link model not attached");
        if (e.groups.size() < 2) return fail("partition: need >= 2 groups");
        std::vector<char> seen(n, 0);
        for (const auto& group : e.groups) {
          for (const net::NodeId id : group) {
            if (id >= n) {
              return fail("partition: node " + std::to_string(id) +
                          " out of range");
            }
            if (seen[id]) {
              return fail("partition: node " + std::to_string(id) +
                          " in two groups");
            }
            seen[id] = 1;
          }
        }
        break;
      }
      case EventKind::kDegrade:
        if (!links_) return fail("degrade: scenario link model not attached");
        if (e.value < 0.0 || e.value > 1.0) {
          return fail("degrade: factor must be in [0, 1]");
        }
        for (const net::NodeId id : e.nodes) {
          if (id >= n) {
            return fail("degrade: node " + std::to_string(id) +
                        " out of range");
          }
        }
        break;
    }
  }

  if (obs::MetricsRegistry* m = network_.stats().metrics()) {
    m_events_ = m->register_counter("scenario.events", obs::Unit::kCount, false);
    m_kills_ = m->register_counter("scenario.kills", obs::Unit::kCount, true);
    m_reboots_ =
        m->register_counter("scenario.reboots", obs::Unit::kCount, true);
    m_moves_ = m->register_counter("scenario.moves", obs::Unit::kCount, true);
  }

  last_activity_ = scenario_.last_event_time();
  sim::Scheduler& sched = network_.simulator().scheduler();
  for (const auto& e : scenario_.events()) {
    // The referenced event lives in scenario_, which the caller keeps
    // alive for the whole run (it is part of the experiment config).
    const ScenarioEvent* ev = &e;
    sched.post_at(e.at, [this, ev] {
      switch (ev->kind) {
        case EventKind::kKill:
          kill_node(ev->node, ev->duration);
          break;
        case EventKind::kReboot:
          reboot_node(ev->node);
          break;
        case EventKind::kCrashFraction:
          crash_fraction(ev->value, ev->duration);
          break;
        case EventKind::kBatteryBudget:
          watch_battery(ev->node, ev->value);
          break;
        case EventKind::kPartition: {
          links_->set_partition(ev->groups);
          record(net::kBroadcastId, "partition on");
          network_.simulator().scheduler().post_after(ev->duration, [this] {
            links_->clear_partition();
            record(net::kBroadcastId, "partition off");
          });
          break;
        }
        case EventKind::kDegrade: {
          links_->begin_degrade(ev->value, ev->nodes);
          record(net::kBroadcastId, "degrade on");
          network_.simulator().scheduler().post_after(ev->duration, [this, ev] {
            links_->end_degrade(ev->value, ev->nodes);
            record(net::kBroadcastId, "degrade off");
          });
          break;
        }
        case EventKind::kMove:
          start_move(*ev);
          break;
      }
    });
  }
  return true;
}

bool ScenarioEngine::converged() const {
  if (network_.simulator().now() < last_activity_) return false;
  for (net::NodeId id = 0; id < network_.size(); ++id) {
    const node::Node& n = network_.node(id);
    if (n.is_dead()) continue;
    const node::Application* app = n.application();
    if (!app || !app->has_complete_image()) return false;
  }
  return true;
}

void ScenarioEngine::record(net::NodeId node, const std::string& detail) {
  ++injected_;
  if (trace::EventLog* log = network_.stats().event_log()) {
    log->record(network_.simulator().now(), node,
                trace::EventKind::kScenario, detail);
  }
  if (obs::MetricsRegistry* m = network_.stats().metrics()) {
    m->add(m_events_);
  }
}

void ScenarioEngine::kill_node(net::NodeId id, sim::Time down_for) {
  node::Node& n = network_.node(id);
  if (n.is_dead()) return;
  n.kill();
  record(id, "kill " + std::to_string(id));
  if (obs::MetricsRegistry* m = network_.stats().metrics()) {
    m->add(m_kills_, id);
  }
  if (down_for > 0) {
    network_.simulator().scheduler().post_after(
        down_for, [this, id] { reboot_node(id); });
  }
}

void ScenarioEngine::reboot_node(net::NodeId id) {
  node::Node& n = network_.node(id);
  if (!n.is_dead()) return;
  n.reboot();
  record(id, "reboot " + std::to_string(id));
  if (obs::MetricsRegistry* m = network_.stats().metrics()) {
    m->add(m_reboots_, id);
  }
}

void ScenarioEngine::crash_fraction(double fraction, sim::Time down_for) {
  std::vector<net::NodeId> candidates;
  candidates.reserve(network_.size());
  for (net::NodeId id = 0; id < network_.size(); ++id) {
    if (id == protect_ || network_.node(id).is_dead()) continue;
    candidates.push_back(id);
  }
  // Fraction of the deployment, not of the survivors: "crash 20%" on a
  // 100-node grid always means 20 motes (when that many are available).
  std::size_t count = static_cast<std::size_t>(
      std::floor(fraction * static_cast<double>(network_.size())));
  count = std::min(count, candidates.size());
  // Partial Fisher-Yates over the candidate list: draws exactly `count`
  // uniform victims from the engine's private stream.
  for (std::size_t i = 0; i < count; ++i) {
    const auto j = static_cast<std::size_t>(rng_.uniform_int(
        static_cast<std::int64_t>(i),
        static_cast<std::int64_t>(candidates.size() - 1)));
    std::swap(candidates[i], candidates[j]);
    kill_node(candidates[i], down_for);
  }
}

void ScenarioEngine::watch_battery(net::NodeId id, double budget_nah) {
  sim::Simulator& sim = network_.simulator();
  node::Node& n = network_.node(id);
  if (!n.is_dead() && n.meter().total_nah(sim.now()) >= budget_nah) {
    n.kill();
    record(id, "battery " + std::to_string(id) + " dead");
    if (obs::MetricsRegistry* m = network_.stats().metrics()) {
      m->add(m_kills_, id);
    }
    return;  // a battery death is final; the monitor chain ends here
  }
  sim.scheduler().post_after(
      sim::sec(1), [this, id, budget_nah] { watch_battery(id, budget_nah); });
}

void ScenarioEngine::start_move(const ScenarioEvent& e) {
  const net::NodeId id = e.node;
  if (obs::MetricsRegistry* m = network_.stats().metrics()) {
    m->add(m_moves_, id);
  }
  if (e.duration <= 0) {
    network_.move_node(id, net::Position{e.x, e.y});
    record(id, "move " + std::to_string(id));
    return;
  }
  record(id, "move " + std::to_string(id) + " on");
  // Waypoint glide from wherever the node is *now* (an earlier move may
  // already have displaced it) to the destination, one step per second.
  const net::Position from = network_.topology().position(id);
  const net::Position to{e.x, e.y};
  sim::Scheduler& sched = network_.simulator().scheduler();
  const sim::Time start = network_.simulator().now();
  for (sim::Time elapsed = kMoveStep;; elapsed += kMoveStep) {
    const bool last = elapsed >= e.duration;
    const sim::Time step_at = start + (last ? e.duration : elapsed);
    const double f = last ? 1.0
                          : static_cast<double>(elapsed) /
                                static_cast<double>(e.duration);
    const net::Position p{from.x + (to.x - from.x) * f,
                          from.y + (to.y - from.y) * f};
    sched.post_at(step_at, [this, id, p, last] {
      network_.move_node(id, p);
      if (last) record(id, "move " + std::to_string(id) + " off");
    });
    if (last) break;
  }
}

}  // namespace mnp::scenario
