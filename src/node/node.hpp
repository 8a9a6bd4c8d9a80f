// A mote: radio + CSMA MAC + EEPROM + energy meter + one application.
//
// The Node is the "operating system" facade handed to protocol code: it
// stamps outgoing packets, exposes timers backed by the simulation
// scheduler, and wires radio receptions into Application::on_packet.
#pragma once

#include <memory>

#include "energy/energy_meter.hpp"
#include "net/csma_mac.hpp"
#include "net/channel.hpp"
#include "net/radio.hpp"
#include "node/application.hpp"
#include "sim/simulator.hpp"
#include "storage/eeprom.hpp"

namespace mnp::node {

class StatsCollector;

class Node {
 public:
  /// Builds this node's MAC once the radio exists. A null factory means
  /// the default CSMA MAC.
  using MacFactory = std::function<std::unique_ptr<net::Mac>(
      net::NodeId, net::Radio&, sim::Simulator&)>;

  /// `page_store`, when not null, is the store this node's EEPROM shares
  /// full pages through; it must outlive the node.
  Node(net::NodeId id, sim::Simulator& sim, net::Channel& channel,
       StatsCollector& stats, energy::EnergyModel energy_model = {},
       const MacFactory& mac_factory = nullptr,
       storage::PageStore* page_store = nullptr);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Installs the protocol. Must be called before boot().
  void set_application(std::unique_ptr<Application> app);

  /// Boots the mote: radio on, application started.
  void boot();

  // --- services exposed to the application --------------------------------
  net::NodeId id() const { return id_; }
  sim::Time now() const { return sim_.now(); }

  /// One-shot timer; cancel via the returned handle.
  sim::EventHandle schedule(sim::Time delay, sim::Scheduler::Action action) {
    return sim_.scheduler().schedule_after(delay, action);
  }

  /// Queues `pkt` on the MAC (src is stamped here). Returns false if
  /// dropped (queue full / radio off). The packet is wrapped exactly once
  /// into a shared frame; it is never copied again on its way to the air.
  bool send(net::Packet pkt);

  /// The channel-wide frame/payload pool. Protocols stream code packets by
  /// filling pool buffers (acquire_payload) so steady-state sends recycle
  /// instead of allocating.
  net::FramePool& frame_pool() { return radio_.channel().frame_pool(); }

  void radio_on() {
    if (!dead_) radio_.turn_on();
  }
  void radio_off();
  bool radio_is_on() const { return radio_.is_on(); }

  /// Fault injection: the mote dies (battery pulled / crashed). The radio
  /// goes silent permanently; pending application timers still fire but
  /// can neither send nor receive — exactly the failure mode the paper's
  /// download timeout exists for ("the sender dies as it is sending
  /// packets").
  void kill();
  bool is_dead() const { return dead_; }

  /// Power-cycles a dead mote: volatile application state is discarded
  /// (Application::reset_for_reboot), EEPROM survives, and the node boots
  /// again — the paper's "failed nodes rejoin and resume" path. No-op on
  /// a live node.
  void reboot();

  net::Mac& mac() { return *mac_; }
  net::Radio& radio() { return radio_; }
  storage::Eeprom& eeprom() { return eeprom_; }
  energy::EnergyMeter& meter() { return meter_; }
  sim::Rng& rng() { return rng_; }
  StatsCollector& stats() { return stats_; }
  Application* application() { return app_.get(); }
  const Application* application() const { return app_.get(); }

 private:
  net::NodeId id_;
  sim::Simulator& sim_;
  StatsCollector& stats_;
  energy::EnergyMeter meter_;
  net::Radio radio_;
  std::unique_ptr<net::Mac> mac_;
  storage::Eeprom eeprom_;
  sim::Rng rng_;
  std::unique_ptr<Application> app_;
  bool dead_ = false;
};

}  // namespace mnp::node
