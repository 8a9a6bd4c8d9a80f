// Network: the full assembly — topology, link model, metrics registry,
// channel, stats and one Node per position. This is the object examples
// and benches build.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "net/channel.hpp"
#include "net/link_model.hpp"
#include "net/topology.hpp"
#include "node/node.hpp"
#include "node/stats.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"
#include "storage/eeprom.hpp"

namespace mnp::node {

class Network {
 public:
  /// The link model is created *after* the network owns the topology (link
  /// models hold a reference to it), hence the factory.
  using LinkModelFactory =
      std::function<std::unique_ptr<net::LinkModel>(const net::Topology&)>;

  Network(sim::Simulator& sim, net::Topology topology,
          const LinkModelFactory& make_links,
          net::Channel::Params channel_params = {},
          energy::EnergyModel energy_model = {},
          const Node::MacFactory& mac_factory = nullptr);

  std::size_t size() const { return nodes_.size(); }
  Node& node(net::NodeId id) { return *nodes_.at(id); }
  const Node& node(net::NodeId id) const { return *nodes_.at(id); }

  const net::Topology& topology() const { return topology_; }
  /// Scenario mobility hook: moves one node. Topology::version() bumps,
  /// so the channel's cached adjacency rebuilds on its next query instead
  /// of silently keeping stale reach bitsets.
  void move_node(net::NodeId id, net::Position p) {
    topology_.set_position(id, p);
  }
  net::Channel& channel() { return channel_; }
  /// The run's one accounting store (DESIGN.md section 9), sized to the
  /// node count: the channel, every MAC, the stats collector, the
  /// protocols and a scenario engine all count here.
  obs::MetricsRegistry& metrics() { return metrics_; }
  StatsCollector& stats() { return stats_; }
  const StatsCollector& stats() const { return stats_; }
  sim::Simulator& simulator() { return sim_; }
  /// The full EEPROM pages every node shares (DESIGN.md section 6).
  const storage::PageStore& page_store() const { return page_store_; }

  /// Boots every node, each at an independent random offset within
  /// [0, max_jitter] — motes in the field never power up simultaneously.
  void boot_all(sim::Time max_jitter = sim::msec(500));

  /// Wires the trace side (DESIGN.md section 9): the stats collector
  /// records into `log`, and every radio logs its on/off flips so the
  /// trace exporter can draw radio-duty slices. Call before boot_all();
  /// attaching mid-run loses prior history.
  void attach_event_log(trace::EventLog& log);

  /// End-of-run capture: every node's energy meter publishes its gauges
  /// into the registry at time `now`.
  void publish_energy_metrics(sim::Time now);

  /// Number of nodes whose application reports a complete image.
  std::size_t complete_image_count() const;

 private:
  sim::Simulator& sim_;
  net::Topology topology_;
  std::unique_ptr<net::LinkModel> links_;
  // Before stats_ and channel_, which register in it as they are built.
  obs::MetricsRegistry metrics_;
  StatsCollector stats_;
  net::Channel channel_;
  // Before nodes_: every node's EEPROM reads its shared pages, so the
  // store must outlive them.
  storage::PageStore page_store_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace mnp::node
