// MNP state-machine unit tests.
//
// A scripted "puppet" application shares the channel with one real MnpNode
// and plays arbitrary protocol roles (advertiser, sender, requester), so
// every transition of the paper's Fig.-4 machine can be exercised and
// observed deterministically.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mnp/mnp_node.hpp"
#include "node/network.hpp"
#include "sim/simulator.hpp"

namespace mnp::core {
namespace {

using net::Packet;
using net::PacketType;

/// Test double that records everything it hears and sends what it's told.
class PuppetApp final : public node::Application {
 public:
  void start(node::Node& node) override {
    node_ = &node;
    node_->radio_on();
  }
  void on_packet(const Packet& pkt) override { received.push_back(pkt); }
  bool has_complete_image() const override { return true; }

  void send(Packet pkt) { node_->send(std::move(pkt)); }

  std::vector<Packet> received;
  std::vector<const Packet*> of_type(PacketType t) const {
    std::vector<const Packet*> out;
    for (const auto& p : received) {
      if (p.type() == t) out.push_back(&p);
    }
    return out;
  }

 private:
  node::Node* node_ = nullptr;
};

/// Fast protocol constants so unit scenarios finish in simulated seconds.
MnpConfig fast_config() {
  MnpConfig c;
  c.packets_per_segment = 8;
  c.payload_bytes = 4;
  c.adv_rounds_before_decision = 3;
  c.adv_interval_min = sim::msec(40);
  c.adv_interval_max = sim::msec(80);
  c.adv_interval_cap = sim::msec(2560);
  c.request_delay_max = sim::msec(20);
  c.per_packet_time_estimate = sim::msec(25);
  c.download_idle_timeout = sim::msec(800);
  c.update_missing_threshold = 3;
  return c;
}

class MnpUnitTest : public ::testing::Test {
 protected:
  // Node 0: puppet; node 1: MnpNode under test (ids matter for tie-breaks:
  // some tests use a third puppet at node 2).
  void build(std::uint16_t segments, bool node_is_base,
             std::size_t nodes = 2, MnpConfig cfg = fast_config()) {
    cfg_ = cfg;
    sim_ = std::make_unique<sim::Simulator>(7);
    net::Topology topo;
    for (std::size_t i = 0; i < nodes; ++i) {
      topo.add({static_cast<double>(i) * 10.0, 0.0});
    }
    network_ = std::make_unique<node::Network>(
        *sim_, std::move(topo), [](const net::Topology& t) {
          // Everyone hears everyone: 100 ft disk on a <=30 ft line.
          return std::make_unique<net::DiskLinkModel>(t, 100.0);
        });
    image_ = std::make_shared<const ProgramImage>(
        1, static_cast<std::size_t>(segments) * cfg_.packets_per_segment *
               cfg_.payload_bytes,
        cfg_.packets_per_segment, cfg_.payload_bytes);

    auto puppet = std::make_unique<PuppetApp>();
    puppet_ = puppet.get();
    network_->node(0).set_application(std::move(puppet));

    auto mnp = node_is_base ? std::make_unique<MnpNode>(cfg_, image_)
                            : std::make_unique<MnpNode>(cfg_);
    mnp_ = mnp.get();
    network_->node(1).set_application(std::move(mnp));

    for (std::size_t i = 2; i < nodes; ++i) {
      auto extra = std::make_unique<PuppetApp>();
      extra_puppets_.push_back(extra.get());
      network_->node(i).set_application(std::move(extra));
    }
    for (net::NodeId i = 0; i < network_->size(); ++i) network_->node(i).boot();
  }

  void run_for(sim::Time span) { sim_->run_until(sim_->now() + span); }

  net::AdvertisementMsg make_adv(std::uint16_t seg, std::uint8_t req_ctr) const {
    net::AdvertisementMsg adv;
    adv.program_id = image_->id();
    adv.program_bytes = static_cast<std::uint32_t>(image_->total_bytes());
    adv.program_segments = image_->num_segments();
    adv.seg_id = seg;
    adv.req_ctr = req_ctr;
    return adv;
  }

  void puppet_sends_adv(std::uint16_t seg, std::uint8_t req_ctr) {
    Packet pkt;
    pkt.payload = make_adv(seg, req_ctr);
    puppet_->send(std::move(pkt));
  }

  void puppet_sends_data(std::uint16_t seg, std::uint16_t pkt_id) {
    Packet pkt;
    net::DataMsg d;
    d.program_id = image_->id();
    d.seg_id = seg;
    d.pkt_id = static_cast<std::uint8_t>(pkt_id);
    d.payload = image_->packet_payload(seg, pkt_id);
    pkt.payload = std::move(d);
    puppet_->send(std::move(pkt));
  }

  void puppet_starts_download(std::uint16_t seg) {
    Packet pkt;
    pkt.payload =
        net::StartDownloadMsg{image_->id(), seg, cfg_.packets_per_segment};
    puppet_->send(std::move(pkt));
  }

  /// Walks the node under test through a full download of `seg` from the
  /// puppet, delivering every packet.
  void deliver_segment(std::uint16_t seg) {
    puppet_sends_adv(seg, 0);
    run_for(sim::msec(200));
    puppet_starts_download(seg);
    run_for(sim::msec(100));
    for (std::uint16_t p = 0; p < image_->layout().packets_in(seg); ++p) {
      puppet_sends_data(seg, p);
      run_for(sim::msec(50));
    }
  }

  MnpConfig cfg_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<node::Network> network_;
  std::shared_ptr<const ProgramImage> image_;
  PuppetApp* puppet_ = nullptr;
  std::vector<PuppetApp*> extra_puppets_;
  MnpNode* mnp_ = nullptr;
};

TEST_F(MnpUnitTest, BaseBootsAdvertisingItsProgram) {
  build(2, /*node_is_base=*/true);
  EXPECT_EQ(mnp_->state(), MnpNode::State::kAdvertise);
  EXPECT_TRUE(mnp_->has_complete_image());
  run_for(sim::msec(500));
  const auto advs = puppet_->of_type(PacketType::kAdvertisement);
  ASSERT_FALSE(advs.empty());
  const auto* adv = advs[0]->as<net::AdvertisementMsg>();
  EXPECT_EQ(adv->program_segments, 2);
  EXPECT_EQ(adv->program_bytes, image_->total_bytes());
}

TEST_F(MnpUnitTest, FreshNodeBootsIdle) {
  build(1, /*node_is_base=*/false);
  EXPECT_EQ(mnp_->state(), MnpNode::State::kIdle);
  EXPECT_FALSE(mnp_->has_complete_image());
  EXPECT_EQ(mnp_->received_segments(), 0);
}

TEST_F(MnpUnitTest, AdvertisementDrawsDownloadRequest) {
  build(1, false);
  puppet_sends_adv(1, 0);
  run_for(sim::msec(300));
  const auto reqs = puppet_->of_type(PacketType::kDownloadRequest);
  ASSERT_EQ(reqs.size(), 1u);
  const auto* req = reqs[0]->as<net::DownloadRequestMsg>();
  EXPECT_EQ(req->dest, 0);            // destined to the puppet
  EXPECT_EQ(req->seg_id, 1);          // expects segment 1
  EXPECT_TRUE(req->request_all);      // fresh node: everything missing
}

TEST_F(MnpUnitTest, PartialLossRequestsCarryMissingWindow) {
  build(1, false);
  puppet_sends_adv(1, 0);
  run_for(sim::msec(300));
  puppet_starts_download(1);
  run_for(sim::msec(100));
  puppet_sends_data(1, 0);  // receive packets 0 and 2; miss the rest
  run_for(sim::msec(50));
  puppet_sends_data(1, 2);
  run_for(sim::msec(50));
  run_for(sim::sec(3));  // stall -> fail -> back to requesting
  puppet_->received.clear();
  puppet_sends_adv(1, 0);
  run_for(sim::msec(300));
  const auto reqs = puppet_->of_type(PacketType::kDownloadRequest);
  ASSERT_FALSE(reqs.empty());
  const auto* req = reqs.back()->as<net::DownloadRequestMsg>();
  EXPECT_FALSE(req->request_all);
  EXPECT_EQ(req->window_base, 1);         // first missing packet
  EXPECT_TRUE(req->missing.test(0));      // packet 1 missing
  EXPECT_FALSE(req->missing.test(1));     // packet 2 present
  EXPECT_TRUE(req->missing.test(2));      // packet 3 missing
}

TEST_F(MnpUnitTest, RequestEchoesAdvertisersReqCtr) {
  build(1, false);
  puppet_sends_adv(1, 5);
  run_for(sim::msec(300));
  const auto reqs = puppet_->of_type(PacketType::kDownloadRequest);
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_EQ(reqs[0]->as<net::DownloadRequestMsg>()->req_ctr_echo, 5);
}

TEST_F(MnpUnitTest, StartDownloadSetsParentAndEntersDownload) {
  build(1, false);
  puppet_sends_adv(1, 0);
  run_for(sim::msec(300));
  puppet_starts_download(1);
  run_for(sim::msec(100));
  EXPECT_EQ(mnp_->state(), MnpNode::State::kDownload);
  EXPECT_EQ(mnp_->parent(), 0);
}

TEST_F(MnpUnitTest, CompletesSegmentOnceAllPacketsStored) {
  build(1, false);
  deliver_segment(1);
  EXPECT_EQ(mnp_->received_segments(), 1);
  EXPECT_TRUE(mnp_->has_complete_image());
  EXPECT_EQ(mnp_->state(), MnpNode::State::kAdvertise);
  EXPECT_EQ(network_->stats().completed_count(), 1u);
  // Exact image in EEPROM.
  auto stored = network_->node(1).eeprom().read(0, image_->total_bytes());
  EXPECT_TRUE(image_->matches(stored));
}

TEST_F(MnpUnitTest, DuplicateDataWrittenToEepromOnlyOnce) {
  build(1, false);
  network_->node(1).eeprom().set_track_write_once(true);
  puppet_sends_adv(1, 0);
  run_for(sim::msec(300));
  puppet_starts_download(1);
  run_for(sim::msec(100));
  puppet_sends_data(1, 0);
  run_for(sim::msec(50));
  puppet_sends_data(1, 0);  // duplicate
  run_for(sim::msec(50));
  EXPECT_EQ(network_->node(1).eeprom().double_writes(), 0u);
  EXPECT_EQ(network_->node(1).eeprom().total_writes(), 1u);
}

TEST_F(MnpUnitTest, DataForExpectedSegmentImpliesDownload) {
  // Missed StartDownload: the first data packet joins the stream.
  build(1, false);
  puppet_sends_adv(1, 0);
  run_for(sim::msec(300));
  puppet_sends_data(1, 2);
  run_for(sim::msec(100));
  EXPECT_EQ(mnp_->state(), MnpNode::State::kDownload);
  EXPECT_EQ(mnp_->parent(), 0);
}

TEST_F(MnpUnitTest, SmallResidualLossRepairsThroughQueryUpdate) {
  build(1, false);
  puppet_sends_adv(1, 0);
  run_for(sim::msec(300));
  puppet_starts_download(1);
  run_for(sim::msec(100));
  for (std::uint16_t p = 0; p < 8; ++p) {
    if (p == 3) continue;  // one packet "lost"
    puppet_sends_data(1, p);
    run_for(sim::msec(50));
  }
  Packet end;
  end.payload = net::EndDownloadMsg{1};
  puppet_->send(std::move(end));
  run_for(sim::msec(100));
  EXPECT_EQ(mnp_->state(), MnpNode::State::kUpdate);

  Packet query;
  query.payload = net::QueryMsg{1};
  puppet_->send(std::move(query));
  run_for(sim::msec(100));
  const auto repairs = puppet_->of_type(PacketType::kRepairRequest);
  ASSERT_FALSE(repairs.empty());
  EXPECT_EQ(repairs.back()->as<net::RepairRequestMsg>()->pkt_id, 3);

  puppet_sends_data(1, 3);
  run_for(sim::msec(100));
  EXPECT_TRUE(mnp_->has_complete_image());
}

TEST_F(MnpUnitTest, HeavyResidualLossFailsInsteadOfUpdating) {
  build(1, false);
  puppet_sends_adv(1, 0);
  run_for(sim::msec(300));
  puppet_starts_download(1);
  run_for(sim::msec(100));
  puppet_sends_data(1, 0);  // only 1 of 8 received; threshold is 3
  run_for(sim::msec(50));
  Packet end;
  end.payload = net::EndDownloadMsg{1};
  puppet_->send(std::move(end));
  run_for(sim::msec(100));
  EXPECT_EQ(mnp_->state(), MnpNode::State::kIdle);  // fail -> idle
  EXPECT_GE(mnp_->fail_count(), 1u);
  EXPECT_EQ(mnp_->received_segments(), 0);
}

TEST_F(MnpUnitTest, DownloadStallTimesOutToFail) {
  build(1, false);
  puppet_sends_adv(1, 0);
  run_for(sim::msec(300));
  puppet_starts_download(1);
  run_for(sim::msec(100));
  EXPECT_EQ(mnp_->state(), MnpNode::State::kDownload);
  run_for(sim::sec(3));  // nothing arrives; idle timeout is 800 ms
  EXPECT_EQ(mnp_->state(), MnpNode::State::kIdle);
  EXPECT_GE(mnp_->fail_count(), 1u);
}

TEST_F(MnpUnitTest, UninterestingStartDownloadSendsNodeToSleep) {
  build(2, false);
  puppet_sends_adv(1, 0);  // teach it the program first
  run_for(sim::msec(300));
  puppet_starts_download(2);  // segment it cannot use yet
  run_for(sim::msec(100));
  EXPECT_EQ(mnp_->state(), MnpNode::State::kSleep);
  EXPECT_FALSE(network_->node(1).radio_is_on());
  // And it wakes up again on its own.
  run_for(sim::sec(2));
  EXPECT_TRUE(network_->node(1).radio_is_on());
}

TEST_F(MnpUnitTest, SourceLosesElectionToBusierSourceAndSleeps) {
  build(1, /*node_is_base=*/true);
  run_for(sim::msec(100));
  puppet_sends_adv(1, 4);  // puppet claims 4 requesters; base has 0
  run_for(sim::msec(100));
  EXPECT_EQ(mnp_->state(), MnpNode::State::kSleep);
  EXPECT_FALSE(network_->node(1).radio_is_on());
}

TEST_F(MnpUnitTest, SourceIgnoresQuieterCompetitor) {
  build(1, true);
  run_for(sim::msec(100));
  puppet_sends_adv(1, 0);  // no requesters: no reason to yield
  run_for(sim::msec(100));
  EXPECT_EQ(mnp_->state(), MnpNode::State::kAdvertise);
}

TEST_F(MnpUnitTest, OverheardRequestToBusierSourceSilencesUs) {
  // Hidden-terminal defence: the request is destined to node 2 (which we
  // may not even hear) but carries its ReqCtr.
  build(1, true, /*nodes=*/3);
  run_for(sim::msec(100));
  Packet pkt;
  net::DownloadRequestMsg req;
  req.dest = 2;
  req.seg_id = 1;
  req.req_ctr_echo = 7;
  req.missing = util::Bitmap::all_set(8);
  pkt.payload = req;
  puppet_->send(std::move(pkt));
  run_for(sim::msec(100));
  EXPECT_EQ(mnp_->state(), MnpNode::State::kSleep);
}

TEST_F(MnpUnitTest, LoserNeedingTheSegmentWaitsAwakeInstead) {
  // A node that already has segment 1 (of 2) must NOT sleep when the
  // election winner is about to transmit segment 2 — it would sleep
  // through its own download.
  build(2, false);
  deliver_segment(1);
  ASSERT_EQ(mnp_->received_segments(), 1);
  ASSERT_EQ(mnp_->state(), MnpNode::State::kAdvertise);
  puppet_sends_adv(2, 6);  // busier source offering exactly what we need
  run_for(sim::msec(100));
  EXPECT_EQ(mnp_->state(), MnpNode::State::kIdle);  // waiting, radio ON
  EXPECT_TRUE(network_->node(1).radio_is_on());
  // And the wait converts into a download when the transfer starts.
  puppet_starts_download(2);
  run_for(sim::msec(100));
  EXPECT_EQ(mnp_->state(), MnpNode::State::kDownload);
}

TEST_F(MnpUnitTest, ForwardStreamsOnlyRequestedPackets) {
  build(1, true);
  run_for(sim::msec(50));
  Packet pkt;
  net::DownloadRequestMsg req;
  req.dest = 1;  // the base under test
  req.program_id = image_->id();
  req.seg_id = 1;
  req.req_ctr_echo = 0;
  req.missing = util::Bitmap(8);
  req.missing.set(3);
  req.missing.set(7);
  pkt.payload = req;
  puppet_->send(std::move(pkt));
  run_for(sim::sec(3));  // let K advertisements elapse and forwarding run
  const auto data = puppet_->of_type(PacketType::kData);
  ASSERT_EQ(data.size(), 2u);
  EXPECT_EQ(data[0]->as<net::DataMsg>()->pkt_id, 3);
  EXPECT_EQ(data[1]->as<net::DataMsg>()->pkt_id, 7);
  EXPECT_FALSE(puppet_->of_type(PacketType::kStartDownload).empty());
  EXPECT_FALSE(puppet_->of_type(PacketType::kEndDownload).empty());
}

TEST_F(MnpUnitTest, SenderAnswersRepairRequestsInQueryPhase) {
  build(1, true);
  run_for(sim::msec(50));
  Packet pkt;
  net::DownloadRequestMsg req;
  req.dest = 1;
  req.program_id = image_->id();
  req.seg_id = 1;
  req.missing = util::Bitmap(8);
  req.missing.set(0);
  pkt.payload = req;
  puppet_->send(std::move(pkt));
  run_for(sim::msec(800));  // forward finishes, node sits in Query
  ASSERT_EQ(mnp_->state(), MnpNode::State::kQuery);
  ASSERT_FALSE(puppet_->of_type(PacketType::kQuery).empty());
  const auto before = puppet_->of_type(PacketType::kData).size();
  Packet repair;
  repair.payload = net::RepairRequestMsg{1, 1, 5};
  puppet_->send(std::move(repair));
  run_for(sim::msec(300));
  EXPECT_EQ(puppet_->of_type(PacketType::kData).size(), before + 1);
}

TEST_F(MnpUnitTest, AdvertisementIntervalBacksOffWhenUnwanted) {
  build(1, true);
  run_for(sim::sec(20));
  const auto advs = puppet_->of_type(PacketType::kAdvertisement);
  ASSERT_GE(advs.size(), 4u);
  // With nobody requesting, advertisements must become sparse: far fewer
  // than 20s / ~60ms ≈ 300 fixed-rate advertisements.
  EXPECT_LT(advs.size(), 60u);
}

TEST_F(MnpUnitTest, NeighborhoodCompletionEstimate) {
  build(1, true);
  EXPECT_FALSE(mnp_->neighborhood_estimated_complete());
  run_for(sim::sec(5));  // K quiet advertisements of the last segment
  EXPECT_TRUE(mnp_->neighborhood_estimated_complete());
}

TEST_F(MnpUnitTest, RebootRequiresExternalSignalAndVerifiedImage) {
  build(1, false);
  EXPECT_FALSE(mnp_->reboot(*image_));  // nothing received yet
  deliver_segment(1);
  EXPECT_TRUE(mnp_->has_complete_image());
  EXPECT_TRUE(mnp_->reboot(*image_));
}

TEST_F(MnpUnitTest, BatteryAwareAdvertisingScalesTxPower) {
  auto cfg = fast_config();
  cfg.battery_aware = true;
  build(1, true, 2, cfg);
  mnp_->set_battery_level(0.5);
  run_for(sim::sec(1));
  const auto advs = puppet_->of_type(PacketType::kAdvertisement);
  ASSERT_FALSE(advs.empty());
  EXPECT_DOUBLE_EQ(advs.back()->power_scale, 0.5);
}

TEST_F(MnpUnitTest, BatteryLevelClampsToQuarterPowerFloor) {
  auto cfg = fast_config();
  cfg.battery_aware = true;
  build(1, true, 2, cfg);
  mnp_->set_battery_level(0.01);
  run_for(sim::sec(1));
  const auto advs = puppet_->of_type(PacketType::kAdvertisement);
  ASSERT_FALSE(advs.empty());
  EXPECT_DOUBLE_EQ(advs.back()->power_scale, 0.25);
}

TEST_F(MnpUnitTest, StateNamesAreStable) {
  EXPECT_EQ(MnpNode::state_name(MnpNode::State::kIdle), "Idle");
  EXPECT_EQ(MnpNode::state_name(MnpNode::State::kDownload), "Download");
  EXPECT_EQ(MnpNode::state_name(MnpNode::State::kAdvertise), "Advertise");
  EXPECT_EQ(MnpNode::state_name(MnpNode::State::kForward), "Forward");
  EXPECT_EQ(MnpNode::state_name(MnpNode::State::kQuery), "Query");
  EXPECT_EQ(MnpNode::state_name(MnpNode::State::kUpdate), "Update");
  EXPECT_EQ(MnpNode::state_name(MnpNode::State::kSleep), "Sleep");
}

}  // namespace
}  // namespace mnp::core
