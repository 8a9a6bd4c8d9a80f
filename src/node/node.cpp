#include "node/node.hpp"

#include <utility>

#include "node/stats.hpp"

namespace mnp::node {

Node::Node(net::NodeId id, sim::Simulator& sim, net::Channel& channel,
           StatsCollector& stats, energy::EnergyModel energy_model,
           const MacFactory& mac_factory,
           storage::PageStore* page_store)
    : id_(id),
      sim_(sim),
      stats_(stats),
      meter_(energy_model),
      radio_(id, sim.scheduler(), channel, meter_),
      mac_(mac_factory
               ? mac_factory(id, radio_, sim)
               : std::make_unique<net::CsmaMac>(
                     radio_, sim.scheduler(), sim.fork_rng(0x3A5Cu + id))),
      eeprom_(storage::Eeprom::kDefaultCapacity, &meter_, page_store),
      rng_(sim.fork_rng(0x901Du + id)) {
  channel.register_radio(radio_);
  // Before any send: the MAC's counters live in the network's registry.
  mac_->attach_metrics(stats.metrics());
  radio_.set_receive_handler([this](const net::Packet& pkt) {
    if (app_) app_->on_packet(pkt);
  });
}

void Node::set_application(std::unique_ptr<Application> app) {
  app_ = std::move(app);
}

void Node::boot() {
  radio_.turn_on();
  if (app_) app_->start(*this);
}

bool Node::send(net::Packet pkt) {
  if (dead_) return false;
  pkt.src = id_;
  // The one place an outgoing packet becomes a shared frame: everything
  // downstream (MAC queue, channel, every receiver) references this copy.
  return mac_->send(frame_pool().adopt(std::move(pkt)));
}

void Node::kill() {
  dead_ = true;
  mac_->flush();
  radio_.turn_off();
}

void Node::reboot() {
  if (!dead_) return;
  dead_ = false;
  // RAM is gone; flash is not. The application wipes its volatile state
  // (cancelling any timers still pending from before the crash), then
  // start() runs the normal cold-boot path and may recover journaled
  // progress from the surviving EEPROM.
  if (app_) app_->reset_for_reboot();
  boot();
}

void Node::radio_off() {
  // Anything still queued was meaningful only in the state we are leaving.
  mac_->flush();
  radio_.turn_off();
}

}  // namespace mnp::node
