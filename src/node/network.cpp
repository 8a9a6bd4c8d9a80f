#include "node/network.hpp"

#include <utility>

namespace mnp::node {

Network::Network(sim::Simulator& sim, net::Topology topology,
                 const LinkModelFactory& make_links,
                 net::Channel::Params channel_params,
                 energy::EnergyModel energy_model,
                 const Node::MacFactory& mac_factory)
    : sim_(sim),
      topology_(std::move(topology)),
      links_(make_links(topology_)),
      stats_(topology_.size()),
      channel_(sim, topology_, *links_, channel_params) {
  channel_.set_observer(&stats_);
  nodes_.reserve(topology_.size());
  for (std::size_t i = 0; i < topology_.size(); ++i) {
    nodes_.push_back(std::make_unique<Node>(
        static_cast<net::NodeId>(i), sim, channel_, stats_, energy_model,
        storage::Eeprom::kDefaultCapacity, mac_factory));
  }
}

void Network::boot_all(sim::Time max_jitter) {
  sim::Rng boot_rng = sim_.fork_rng(0xB007ULL);
  for (auto& n : nodes_) {
    const sim::Time offset = boot_rng.uniform_int(0, max_jitter);
    Node* raw = n.get();
    sim_.scheduler().post_after(offset, [raw] { raw->boot(); });
  }
}

void Network::attach_observability(trace::EventLog* log,
                                   obs::MetricsRegistry* metrics) {
  metrics_ = metrics;
  // Per-node cells are sized at registration, so the count comes first.
  if (metrics) metrics->set_node_count(size());
  stats_.set_event_log(log);
  stats_.set_metrics(metrics);
  if (metrics) channel_.attach_metrics(*metrics);
  for (auto& n : nodes_) {
    if (metrics) n->mac().attach_metrics(*metrics);
    if (log) {
      const net::NodeId id = n->id();
      n->radio().set_state_listener([log, id](bool on, sim::Time now) {
        log->record(now, id,
                    on ? trace::EventKind::kRadioOn
                       : trace::EventKind::kRadioOff);
      });
    }
  }
}

void Network::publish_energy_metrics(sim::Time now) {
  if (!metrics_) return;
  for (auto& n : nodes_) {
    n->meter().publish(*metrics_, n->id(), now);
  }
}

std::size_t Network::complete_image_count() const {
  std::size_t count = 0;
  for (const auto& n : nodes_) {
    const Application* app = n->application();
    if (app && app->has_complete_image()) ++count;
  }
  return count;
}

}  // namespace mnp::node
