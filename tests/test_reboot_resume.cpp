// Crash/reboot resume: the EEPROM progress journal and every protocol's
// recovery path. A node killed mid-download must come back, find its
// persisted progress (RAM is gone), resume instead of restarting, and the
// network must still converge to byte-exact images.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/deluge_node.hpp"
#include "baselines/moap_node.hpp"
#include "boot/progress_journal.hpp"
#include "harness/experiment.hpp"
#include "mnp/mnp_node.hpp"
#include "mnp/program_image.hpp"
#include "net/link_model.hpp"
#include "node/network.hpp"
#include "scenario/scenario.hpp"
#include "sim/simulator.hpp"
#include "storage/eeprom.hpp"

namespace mnp {
namespace {

// ---------------------------------------------------------------------------
// ProgressJournal
// ---------------------------------------------------------------------------

TEST(ProgressJournal, AppendsAndRecoversInOrder) {
  storage::Eeprom eeprom;
  boot::ProgressJournal journal(eeprom);
  ASSERT_TRUE(journal.usable(/*image_end=*/1024));
  EXPECT_FALSE(journal.recover().has_value());
  EXPECT_EQ(journal.entries(), 0u);
  EXPECT_EQ(eeprom.resident_pages(), 0u);  // replaying reads, never allocates

  EXPECT_TRUE(journal.append(7, 5632, 1));
  EXPECT_TRUE(journal.append(7, 5632, 2));
  EXPECT_TRUE(journal.append(7, 5632, 3));
  const auto rec = journal.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->program_id, 7);
  EXPECT_EQ(rec->program_bytes, 5632u);
  EXPECT_EQ(rec->prefix, 3);
  EXPECT_EQ(eeprom.resident_pages(), 1u);  // the journal is the top page
}

TEST(ProgressJournal, RecoverySurvivesSimulatedPowerLoss) {
  // The journal's whole point: a *fresh* ProgressJournal object (RAM
  // state lost) over the same EEPROM sees everything appended before the
  // crash.
  storage::Eeprom eeprom;
  {
    boot::ProgressJournal journal(eeprom);
    ASSERT_TRUE(journal.append(9, 2816, 1));
  }
  boot::ProgressJournal after_reboot(eeprom);
  const auto rec = after_reboot.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->program_id, 9);
  EXPECT_EQ(rec->prefix, 1);
  // And appends continue after the existing records, not over them.
  EXPECT_TRUE(after_reboot.append(9, 2816, 2));
  EXPECT_EQ(after_reboot.recover()->prefix, 2);
}

TEST(ProgressJournal, NewProgramIdentitySupersedesOldRecords) {
  // An incremental-update run reuses the mote: records for the previous
  // program must not leak into the new download's recovery.
  storage::Eeprom eeprom;
  boot::ProgressJournal journal(eeprom);
  ASSERT_TRUE(journal.append(7, 5632, 1));
  ASSERT_TRUE(journal.append(7, 5632, 2));
  ASSERT_TRUE(journal.append(8, 8448, 1));
  const auto rec = journal.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->program_id, 8);
  EXPECT_EQ(rec->program_bytes, 8448u);
  EXPECT_EQ(rec->prefix, 1);
}

TEST(ProgressJournal, PrefixIsTheInOrderRunFromUnitOne) {
  storage::Eeprom eeprom;
  boot::ProgressJournal journal(eeprom);
  // No unit 1: the identity is recovered, the prefix is empty.
  ASSERT_TRUE(journal.append(7, 5632, 2));
  ASSERT_TRUE(journal.append(7, 5632, 3));
  ASSERT_TRUE(journal.recover().has_value());
  EXPECT_EQ(journal.recover()->prefix, 0);
  // 2, 3, 1, 3, 2: unit 1 starts the prefix, the later 2 extends it, and
  // the 3 before that 2 does not count.
  ASSERT_TRUE(journal.append(7, 5632, 1));
  ASSERT_TRUE(journal.append(7, 5632, 3));
  ASSERT_TRUE(journal.append(7, 5632, 2));
  EXPECT_EQ(journal.recover()->prefix, 2);
}

TEST(ProgressJournal, RefusesWhenTheImageWouldOverlapTheTail) {
  storage::Eeprom small(boot::ProgressJournal::kRegionBytes / 2);
  EXPECT_FALSE(boot::ProgressJournal(small).usable(16));

  storage::Eeprom eeprom;  // default capacity
  boot::ProgressJournal journal(eeprom);
  EXPECT_TRUE(journal.usable(journal.region_offset()));
  EXPECT_FALSE(journal.usable(journal.region_offset() + 1));
  // append() refuses such an image itself.
  const auto too_big = static_cast<std::uint32_t>(journal.region_offset() + 1);
  EXPECT_FALSE(journal.append(7, too_big, 1));
  EXPECT_FALSE(boot::ProgressJournal(small).append(7, 16, 1));
  EXPECT_EQ(journal.entries(), 0u);
}

TEST(ProgressJournal, CorruptSlotEndsTheRecoveredRun) {
  storage::Eeprom eeprom;
  boot::ProgressJournal journal(eeprom);
  ASSERT_TRUE(journal.append(7, 5632, 1));
  ASSERT_TRUE(journal.append(7, 5632, 2));
  // Flip a byte inside slot 0: its CRC fails, so recovery finds no valid
  // prefix and reports nothing (slot 1 sits beyond the first bad slot).
  const std::size_t slot0 = journal.region_offset();
  auto raw = eeprom.read(slot0, 4);
  raw[0] ^= 0xFF;
  eeprom.write(slot0, raw);
  EXPECT_FALSE(journal.recover().has_value());
}

// ---------------------------------------------------------------------------
// In-vivo resume: kill a downloading node, reboot it, watch it pick up
// where the journal says it left off.
// ---------------------------------------------------------------------------

constexpr std::uint16_t kProgramId = 7;

node::Network::LinkModelFactory disk_links(double range) {
  return [range](const net::Topology& topo) {
    return std::make_unique<net::DiskLinkModel>(topo, range);
  };
}

TEST(RebootResume, MnpNodeResumesFromJournaledSegments) {
  sim::Simulator sim(11);
  node::Network network(sim, net::Topology::grid(3, 3, 10.0),
                        disk_links(15.0));
  core::MnpConfig mc;
  mc.journal_progress = true;
  const std::size_t bytes =
      std::size_t{3} * mc.packets_per_segment * mc.payload_bytes;
  auto image = std::make_shared<const core::ProgramImage>(
      kProgramId, bytes, mc.packets_per_segment, mc.payload_bytes);
  for (net::NodeId id = 0; id < network.size(); ++id) {
    network.node(id).set_application(
        id == 0 ? std::make_unique<core::MnpNode>(mc, image)
                : std::make_unique<core::MnpNode>(mc));
  }
  network.boot_all(sim::msec(50));

  auto* victim =
      dynamic_cast<core::MnpNode*>(network.node(8).application());
  ASSERT_NE(victim, nullptr);
  ASSERT_TRUE(sim.run_until_condition(sim::hours(1), [victim] {
    return victim->received_segments() == 1;
  }));
  network.node(8).kill();

  // Mid-crash, the EEPROM journal already holds the completed segment.
  boot::ProgressJournal journal(network.node(8).eeprom());
  const auto rec = journal.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->program_id, kProgramId);
  EXPECT_EQ(rec->program_bytes, bytes);
  EXPECT_EQ(rec->prefix, 1);

  sim.run_until(sim.now() + sim::sec(30));
  network.node(8).reboot();
  // RAM was wiped by reset_for_reboot; segment 1 is back from EEPROM.
  EXPECT_EQ(victim->received_segments(), 1);
  EXPECT_FALSE(victim->has_complete_image());

  ASSERT_TRUE(sim.run_until_condition(sim::hours(2), [&network] {
    return network.complete_image_count() == network.size();
  }));
  const auto stored = network.node(8).eeprom().read(0, bytes);
  EXPECT_TRUE(image->matches(stored));
  // ceil(8,448 / 4096) = 3 image pages, plus the journal's top page.
  EXPECT_EQ(network.node(8).eeprom().resident_pages(), 4u);
}

// Churn over shared flash: four receivers of a 4x4 grid crash once they
// hold a segment and reboot 30 s later. Every receiver ends holding four
// pages, all read through the network's page store: the image's two full
// pages whole, and write marks only for the image's partial third page and
// the journal's page, whose three 16-byte records are the same on every
// node and never fill it. Each journal recovers the whole image from its
// own records. Killed by the scratch mutation that skips the compare, so
// every write gives its page bytes of its own.
TEST(RebootResume, JournalPagesAreSharedUnderChurn) {
  sim::Simulator sim(14);
  node::Network network(sim, net::Topology::grid(4, 4, 10.0),
                        disk_links(15.0));
  core::MnpConfig mc;
  mc.journal_progress = true;
  const std::size_t bytes =
      std::size_t{3} * mc.packets_per_segment * mc.payload_bytes;
  auto image = std::make_shared<const core::ProgramImage>(
      kProgramId, bytes, mc.packets_per_segment, mc.payload_bytes);
  for (net::NodeId id = 0; id < network.size(); ++id) {
    network.node(id).set_application(
        id == 0 ? std::make_unique<core::MnpNode>(mc, image)
                : std::make_unique<core::MnpNode>(mc));
  }
  network.boot_all(sim::msec(50));

  for (const net::NodeId victim : {5, 15, 10, 3}) {
    auto* app =
        dynamic_cast<core::MnpNode*>(network.node(victim).application());
    ASSERT_NE(app, nullptr);
    ASSERT_TRUE(sim.run_until_condition(
        sim::hours(1), [app] { return app->received_segments() >= 1; }));
    network.node(victim).kill();
    boot::ProgressJournal journal(network.node(victim).eeprom());
    const auto rec = journal.recover();
    ASSERT_TRUE(rec.has_value()) << "node " << victim;
    EXPECT_EQ(rec->prefix, app->received_segments()) << "node " << victim;
    sim.run_until(sim.now() + sim::sec(30));
    network.node(victim).reboot();
  }

  ASSERT_TRUE(sim.run_until_condition(sim::hours(2), [&network] {
    return network.complete_image_count() == network.size();
  }));
  for (net::NodeId id = 1; id < network.size(); ++id) {
    storage::Eeprom& flash = network.node(id).eeprom();
    EXPECT_TRUE(image->matches(flash.read(0, bytes))) << "node " << id;
    // ceil(8,448 / 4096) = 3 image pages, plus the journal's top page.
    EXPECT_EQ(flash.resident_pages(), 4u) << "node " << id;
    EXPECT_EQ(flash.own_pages(), 0u) << "node " << id;
    boot::ProgressJournal journal(flash);
    const auto rec = journal.recover();
    ASSERT_TRUE(rec.has_value()) << "node " << id;
    EXPECT_EQ(rec->program_id, kProgramId);
    EXPECT_EQ(rec->program_bytes, bytes);
    EXPECT_EQ(rec->prefix, 3) << "node " << id;
  }
  EXPECT_EQ(network.page_store().pages(), 4u);
  EXPECT_EQ(network.page_store().own_pages_peak(), 0u);
}

TEST(RebootResume, DelugeNodeResumesFromJournaledPages) {
  sim::Simulator sim(12);
  node::Network network(sim, net::Topology::grid(3, 3, 10.0),
                        disk_links(15.0));
  baselines::DelugeConfig dc;
  dc.journal_progress = true;
  const std::size_t bytes =
      std::size_t{3} * dc.packets_per_page * dc.payload_bytes;
  auto image = std::make_shared<const core::ProgramImage>(
      kProgramId, bytes, dc.packets_per_page, dc.payload_bytes);
  for (net::NodeId id = 0; id < network.size(); ++id) {
    network.node(id).set_application(
        id == 0 ? std::make_unique<baselines::DelugeNode>(dc, image)
                : std::make_unique<baselines::DelugeNode>(dc));
  }
  network.boot_all(sim::msec(50));

  auto* victim =
      dynamic_cast<baselines::DelugeNode*>(network.node(8).application());
  ASSERT_NE(victim, nullptr);
  ASSERT_TRUE(sim.run_until_condition(sim::hours(1), [victim] {
    return victim->complete_pages() == 1;
  }));
  network.node(8).kill();
  sim.run_until(sim.now() + sim::sec(30));
  network.node(8).reboot();
  EXPECT_EQ(victim->complete_pages(), 1);
  EXPECT_FALSE(victim->has_complete_image());

  ASSERT_TRUE(sim.run_until_condition(sim::hours(2), [&network] {
    return network.complete_image_count() == network.size();
  }));
  EXPECT_TRUE(image->matches(network.node(8).eeprom().read(0, bytes)));
}

TEST(RebootResume, MoapNodeJournalsChunksAndConverges) {
  sim::Simulator sim(13);
  node::Network network(sim, net::Topology::grid(3, 3, 10.0),
                        disk_links(15.0));
  baselines::MoapConfig oc;
  oc.journal_progress = true;
  // > 64 packets so at least one chunk is journaled mid-stream.
  const std::size_t total_packets = 160;
  const std::size_t bytes = total_packets * oc.payload_bytes;
  auto image = std::make_shared<const core::ProgramImage>(
      kProgramId, bytes, 128, oc.payload_bytes);
  for (net::NodeId id = 0; id < network.size(); ++id) {
    network.node(id).set_application(
        id == 0 ? std::make_unique<baselines::MoapNode>(oc, image)
                : std::make_unique<baselines::MoapNode>(oc));
  }
  network.boot_all(sim::msec(50));

  // Let node 1 (a base neighbor) stream until its first 64-packet chunk
  // is durable, then pull the plug.
  ASSERT_TRUE(sim.run_until_condition(sim::hours(1), [&network] {
    boot::ProgressJournal journal(network.node(1).eeprom());
    return journal.entries() >= 1;
  }));
  network.node(1).kill();
  boot::ProgressJournal journal(network.node(1).eeprom());
  const auto rec = journal.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->program_id, kProgramId);
  EXPECT_GE(rec->prefix, 1);  // chunk 1 = packets [0, 64)

  sim.run_until(sim.now() + sim::sec(30));
  network.node(1).reboot();
  ASSERT_TRUE(sim.run_until_condition(sim::hours(2), [&network] {
    return network.complete_image_count() == network.size();
  }));
  EXPECT_TRUE(image->matches(network.node(1).eeprom().read(0, bytes)));
}

// ---------------------------------------------------------------------------
// Harness-level churn: the scenario engine drives the same kill/reboot
// through run_experiment for every protocol.
// ---------------------------------------------------------------------------

class RebootConvergence : public ::testing::TestWithParam<harness::Protocol> {};

TEST_P(RebootConvergence, KilledNodeRejoinsAndNetworkConverges) {
  harness::ExperimentConfig cfg;
  cfg.protocol = GetParam();
  cfg.rows = 3;
  cfg.cols = 3;
  cfg.set_program_segments(2);
  cfg.max_sim_time = sim::hours(2);
  cfg.scenario = scenario::ScenarioBuilder{}
                     .kill(sim::sec(30), 4, /*down_for=*/sim::sec(60))
                     .build("mid-download-crash");
  const auto r = harness::run_experiment(cfg);
  ASSERT_TRUE(r.scenario_error.empty()) << r.scenario_error;
  EXPECT_EQ(r.scenario_injected, 2u);  // the kill and the reboot
  EXPECT_EQ(r.dead_nodes, 0u);
  EXPECT_TRUE(r.all_completed)
      << "completed " << r.completed_count << "/" << r.nodes.size();
  EXPECT_EQ(r.verified_count(), r.nodes.size());
}

INSTANTIATE_TEST_SUITE_P(Protocols, RebootConvergence,
                         ::testing::Values(harness::Protocol::kMnp,
                                           harness::Protocol::kDeluge,
                                           harness::Protocol::kMoap,
                                           harness::Protocol::kNcast),
                         [](const auto& info) {
                           return harness::protocol_name(info.param);
                         });

}  // namespace
}  // namespace mnp
