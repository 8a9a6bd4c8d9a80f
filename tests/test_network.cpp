// Network assembly tests: construction, boot jitter, MAC/link factories,
// completion accounting.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "mnp/mnp_node.hpp"
#include "net/tdma_mac.hpp"
#include "node/network.hpp"
#include "sim/simulator.hpp"

namespace mnp::node {
namespace {

std::unique_ptr<net::LinkModel> disk_links(const net::Topology& t) {
  return std::make_unique<net::DiskLinkModel>(t, 25.0);
}

TEST(Network, BuildsOneNodePerPosition) {
  // 100x100 too: flash is paged in on first write, so even 10,000 fresh
  // nodes hold no EEPROM page.
  for (const auto& [rows, cols] :
       {std::pair<std::size_t, std::size_t>{3, 4}, {100, 100}}) {
    sim::Simulator sim(1);
    Network network(sim, net::Topology::grid(rows, cols, 10.0), disk_links);
    ASSERT_EQ(network.size(), rows * cols);
    for (net::NodeId id = 0; id < network.size(); ++id) {
      EXPECT_EQ(network.node(id).id(), id);
      EXPECT_FALSE(network.node(id).radio_is_on());  // not booted yet
      EXPECT_EQ(network.node(id).eeprom().resident_pages(), 0u);
    }
    EXPECT_EQ(network.stats().node_count(), rows * cols);
    EXPECT_EQ(network.topology().grid_cols(), cols);
  }
}

TEST(Network, BootAllJittersWithinBound) {
  sim::Simulator sim(2);
  Network network(sim, net::Topology::grid(2, 2, 10.0), disk_links);
  core::MnpConfig cfg;
  for (net::NodeId id = 0; id < 4; ++id) {
    network.node(id).set_application(std::make_unique<core::MnpNode>(cfg));
  }
  network.boot_all(sim::msec(200));
  // Before the jitter window nothing is on; after it everything is.
  std::size_t on_before = 0;
  sim.run_until(0);
  for (net::NodeId id = 0; id < 4; ++id) {
    if (network.node(id).radio_is_on()) ++on_before;
  }
  sim.run_until(sim::msec(200));
  for (net::NodeId id = 0; id < 4; ++id) {
    EXPECT_TRUE(network.node(id).radio_is_on()) << "node " << id;
  }
  EXPECT_LE(on_before, 4u);
}

TEST(Network, BootIsDeterministicPerSeed) {
  auto first_boot_time = [](std::uint64_t seed) {
    sim::Simulator sim(seed);
    Network network(sim, net::Topology::grid(2, 2, 10.0), disk_links);
    core::MnpConfig cfg;
    for (net::NodeId id = 0; id < 4; ++id) {
      network.node(id).set_application(std::make_unique<core::MnpNode>(cfg));
    }
    network.boot_all(sim::msec(400));
    while (!network.node(0).radio_is_on() && sim.now() < sim::sec(1)) {
      sim.run_until(sim.now() + sim::msec(1));
    }
    return sim.now();
  };
  EXPECT_EQ(first_boot_time(5), first_boot_time(5));
}

TEST(Network, CompleteImageCountTracksApplications) {
  sim::Simulator sim(3);
  Network network(sim, net::Topology::grid(1, 2, 10.0), disk_links);
  core::MnpConfig cfg;
  auto image = std::make_shared<const core::ProgramImage>(
      1, cfg.packets_per_segment * cfg.payload_bytes);
  network.node(0).set_application(std::make_unique<core::MnpNode>(cfg, image));
  network.node(1).set_application(std::make_unique<core::MnpNode>(cfg));
  EXPECT_EQ(network.complete_image_count(), 0u);  // nothing booted yet
  network.node(0).boot();
  EXPECT_EQ(network.complete_image_count(), 1u);  // base holds it innately
  network.node(1).boot();
  sim.run_until_condition(sim::hours(1),
                          [&] { return network.stats().all_completed(); });
  EXPECT_EQ(network.complete_image_count(), 2u);
}

TEST(Network, CompletedRunHoldsOnlyTheImagePages) {
  // MNP 5x5, 5 segments: a 14,080-byte image fills ceil(14,080 / 4096) = 4
  // pages on every receiver; the base serves from RAM and writes none.
  // The network's page store holds all four once. Each receiver reads the
  // three full pages whole and keeps only its write marks for the partial
  // fourth; none holds bytes of its own. Killed by the scratch mutation
  // that skips the compare, so every write gives its page bytes of its own.
  sim::Simulator sim(1);
  Network network(sim, net::Topology::grid(5, 5, 10.0), disk_links);
  core::MnpConfig cfg;
  auto image = std::make_shared<const core::ProgramImage>(
      1, 5 * cfg.packets_per_segment * cfg.payload_bytes,
      cfg.packets_per_segment, cfg.payload_bytes);
  ASSERT_EQ(image->total_bytes(), 14080u);
  for (net::NodeId id = 0; id < network.size(); ++id) {
    network.node(id).set_application(
        id == 0 ? std::make_unique<core::MnpNode>(cfg, image)
                : std::make_unique<core::MnpNode>(cfg));
    network.node(id).eeprom().set_track_write_once(true);
  }
  network.boot_all();
  ASSERT_TRUE(sim.run_until_condition(
      sim::hours(2),
      [&] { return network.complete_image_count() == network.size(); }));
  EXPECT_EQ(network.node(0).eeprom().resident_pages(), 0u);
  for (net::NodeId id = 1; id < network.size(); ++id) {
    storage::Eeprom& flash = network.node(id).eeprom();
    EXPECT_EQ(flash.resident_pages(), 4u) << "node " << id;
    EXPECT_EQ(flash.own_pages(), 0u) << "node " << id;
    EXPECT_TRUE(image->matches(flash.read(0, image->total_bytes())))
        << "node " << id;
    EXPECT_EQ(flash.double_writes(), 0u) << "node " << id;
  }
  EXPECT_EQ(network.page_store().pages(), 4u);
  EXPECT_EQ(network.page_store().own_pages_peak(), 0u);
}

TEST(Network, MacFactoryInstallsCustomMac) {
  sim::Simulator sim(4);
  int factory_calls = 0;
  Network network(
      sim, net::Topology::grid(2, 2, 10.0), disk_links, {}, {},
      [&factory_calls](net::NodeId id, net::Radio& radio,
                       sim::Simulator& s) -> std::unique_ptr<net::Mac> {
        ++factory_calls;
        net::TdmaMac::Params p;
        p.frame_slots = 4;
        p.my_slot = id % 4;
        return std::make_unique<net::TdmaMac>(radio, s.scheduler(), p);
      });
  EXPECT_EQ(factory_calls, 4);
  // The installed MAC is actually used: a TDMA-slotted send works.
  network.node(0).boot();
  network.node(1).boot();
  int received = 0;
  network.node(1).radio().set_receive_handler(
      [&](const net::Packet&) { ++received; });
  net::Packet pkt;
  pkt.payload = net::AdvertisementMsg{};
  EXPECT_TRUE(network.node(0).send(std::move(pkt)));
  sim.run_until(sim::sec(2));
  EXPECT_EQ(received, 1);
}

TEST(Network, NullMacFactoryDefaultsToCsma) {
  sim::Simulator sim(5);
  Network network(sim, net::Topology::grid(1, 2, 10.0), disk_links);
  network.node(0).boot();
  network.node(1).boot();
  int received = 0;
  network.node(1).radio().set_receive_handler(
      [&](const net::Packet&) { ++received; });
  net::Packet pkt;
  pkt.payload = net::AdvertisementMsg{};
  EXPECT_TRUE(network.node(0).send(std::move(pkt)));
  sim.run_until(sim::sec(1));
  EXPECT_EQ(received, 1);
}

}  // namespace
}  // namespace mnp::node
