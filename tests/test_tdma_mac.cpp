// SS-TDMA MAC tests: slot arithmetic, collision-freedom by construction,
// and MNP running end-to-end over TDMA.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "harness/experiment.hpp"
#include "net/channel.hpp"
#include "net/link_model.hpp"
#include "net/tdma_mac.hpp"
#include "sim/simulator.hpp"

namespace mnp::net {
namespace {

TEST(TdmaSlots, TileCoversInterferenceReach) {
  // 10 ft spacing, 25 ft range, 1.6x interference: a shared listener is
  // impossible only when same-slot transmitters sit strictly farther
  // apart than twice the 40 ft interference reach.
  const std::uint32_t m = TdmaMac::tile_for_grid(10.0, 25.0, 1.6);
  EXPECT_GT(m * 10.0, 2 * 25.0 * 1.6);
}

TEST(TdmaSlots, TileDegenerateInputs) {
  EXPECT_GE(TdmaMac::tile_for_grid(0.0, 25.0, 1.6), 2u);
  EXPECT_GE(TdmaMac::tile_for_grid(1000.0, 1.0, 1.0), 2u);
}

TEST(TdmaSlots, SlotAssignmentTilesTheGrid) {
  const std::uint32_t m = 3;
  // Within any m x m tile all slots are distinct.
  std::set<std::uint32_t> slots;
  for (std::size_t row = 0; row < m; ++row) {
    for (std::size_t col = 0; col < m; ++col) {
      slots.insert(TdmaMac::slot_for(row, col, m));
    }
  }
  EXPECT_EQ(slots.size(), static_cast<std::size_t>(m) * m);
  // Same-slot nodes repeat with period m on both axes.
  EXPECT_EQ(TdmaMac::slot_for(1, 2, m), TdmaMac::slot_for(1 + m, 2 + m, m));
  EXPECT_NE(TdmaMac::slot_for(1, 2, m), TdmaMac::slot_for(1, 3, m));
}

TEST(TdmaMacTest, TransmitsOnlyInOwnSlot) {
  sim::Simulator sim(1);
  Topology topo;
  topo.add({0.0, 0.0});
  topo.add({10.0, 0.0});
  DiskLinkModel links(topo, 15.0);
  obs::MetricsRegistry metrics(topo.size());
  Channel channel(sim, topo, links, metrics);
  energy::EnergyMeter m0, m1;
  Radio r0(0, sim.scheduler(), channel, m0);
  Radio r1(1, sim.scheduler(), channel, m1);
  channel.register_radio(r0);
  channel.register_radio(r1);
  int received = 0;
  sim::Time first_rx = -1;
  r1.set_receive_handler([&](const Packet&) {
    ++received;
    if (first_rx < 0) first_rx = sim.now();
  });
  r0.turn_on();
  r1.turn_on();

  TdmaMac::Params params;
  params.slot_duration = sim::msec(50);
  params.frame_slots = 4;
  params.my_slot = 2;  // our slot starts at 100 ms into each frame
  TdmaMac mac(r0, sim.scheduler(), params);
  mac.attach_metrics(metrics);
  Packet pkt;
  pkt.payload = AdvertisementMsg{};
  EXPECT_TRUE(mac.send(pkt));
  sim.run_until(sim::sec(2));
  EXPECT_EQ(received, 1);
  EXPECT_EQ(mac.packets_sent(), 1u);
  // Transmission started exactly at a slot-2 boundary of some frame.
  const sim::Time airtime = channel.airtime(pkt);
  const sim::Time start = first_rx - airtime;
  EXPECT_EQ(start % (params.slot_duration * params.frame_slots),
            2 * params.slot_duration);
}

TEST(TdmaMacTest, QueueDrainsAcrossFrames) {
  sim::Simulator sim(2);
  Topology topo;
  topo.add({0.0, 0.0});
  topo.add({10.0, 0.0});
  DiskLinkModel links(topo, 15.0);
  obs::MetricsRegistry metrics(topo.size());
  Channel channel(sim, topo, links, metrics);
  energy::EnergyMeter m0, m1;
  Radio r0(0, sim.scheduler(), channel, m0);
  Radio r1(1, sim.scheduler(), channel, m1);
  channel.register_radio(r0);
  channel.register_radio(r1);
  int received = 0;
  r1.set_receive_handler([&](const Packet&) { ++received; });
  r0.turn_on();
  r1.turn_on();
  TdmaMac::Params params;
  params.slot_duration = sim::msec(30);
  params.frame_slots = 9;
  params.my_slot = 4;
  TdmaMac mac(r0, sim.scheduler(), params);
  mac.attach_metrics(metrics);
  for (int i = 0; i < 6; ++i) {
    Packet pkt;
    pkt.payload = AdvertisementMsg{};
    EXPECT_TRUE(mac.send(pkt));
  }
  sim.run_until(sim::sec(5));
  EXPECT_EQ(received, 6);
  EXPECT_TRUE(mac.idle());
}

TEST(TdmaMacTest, RadioOffDropsQueuedTraffic) {
  sim::Simulator sim(3);
  Topology topo;
  topo.add({0.0, 0.0});
  DiskLinkModel links(topo, 15.0);
  obs::MetricsRegistry metrics(topo.size());
  Channel channel(sim, topo, links, metrics);
  energy::EnergyMeter m0;
  Radio r0(0, sim.scheduler(), channel, m0);
  channel.register_radio(r0);
  r0.turn_on();
  TdmaMac::Params params;
  params.slot_duration = sim::msec(30);
  params.frame_slots = 4;
  TdmaMac mac(r0, sim.scheduler(), params);
  mac.attach_metrics(metrics);
  Packet pkt;
  pkt.payload = AdvertisementMsg{};
  EXPECT_TRUE(mac.send(pkt));
  r0.turn_off();
  sim.run_until(sim::sec(1));
  EXPECT_EQ(mac.packets_sent(), 0u);
  EXPECT_TRUE(mac.idle());
  // Sending while off is refused outright.
  EXPECT_FALSE(mac.send(pkt));
  EXPECT_GE(mac.packets_dropped(), 1u);
}

TEST(TdmaIntegration, MnpOverTdmaCompletesCollisionFree) {
  harness::ExperimentConfig cfg;
  cfg.mac = harness::MacType::kTdma;
  cfg.rows = 5;
  cfg.cols = 5;
  cfg.range_ft = 25.0;
  cfg.empirical_links = false;  // isolate the MAC property
  cfg.set_program_segments(1);
  cfg.max_sim_time = sim::hours(4);
  const auto r = harness::run_experiment(cfg);
  EXPECT_TRUE(r.all_completed) << r.completed_count << "/" << r.nodes.size();
  EXPECT_EQ(r.verified_count(), r.nodes.size());
  // The tiling guarantees no two same-slot transmitters share a listener.
  EXPECT_EQ(r.collisions, 0u);
}

TEST(TdmaIntegration, LossyLinksStillCompleteOverTdma) {
  harness::ExperimentConfig cfg;
  cfg.mac = harness::MacType::kTdma;
  cfg.rows = 4;
  cfg.cols = 4;
  cfg.range_ft = 25.0;
  cfg.set_program_segments(2);
  cfg.max_sim_time = sim::hours(4);
  const auto r = harness::run_experiment(cfg);
  EXPECT_TRUE(r.all_completed) << r.completed_count << "/" << r.nodes.size();
}

}  // namespace
}  // namespace mnp::net
