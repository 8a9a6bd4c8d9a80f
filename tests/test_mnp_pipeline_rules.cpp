// Unit tests for the five pipelining rules of paper section 3.1.2, driven
// through a scripted puppet peer (same pattern as test_mnp_unit.cpp).
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

MnpConfig fast_config() {
  MnpConfig c;
  c.packets_per_segment = 8;
  c.payload_bytes = 4;
  c.adv_rounds_before_decision = 3;
  c.adv_interval_min = sim::msec(40);
  c.adv_interval_max = sim::msec(80);
  c.request_delay_max = sim::msec(20);
  c.per_packet_time_estimate = sim::msec(25);
  c.download_idle_timeout = sim::msec(800);
  return c;
}

/// Node 0: puppet. Node 1: MnpNode under test, pre-loaded with `rvd` of
/// `total` segments by walking it through puppet-fed downloads.
class PipelineRuleTest : public ::testing::Test {
 protected:
  void build(std::uint16_t total_segments, std::uint16_t preload_segments) {
    cfg_ = fast_config();
    sim_ = std::make_unique<sim::Simulator>(9);
    net::Topology topo;
    topo.add({0.0, 0.0});
    topo.add({10.0, 0.0});
    network_ = std::make_unique<node::Network>(
        *sim_, std::move(topo), [](const net::Topology& t) {
          return std::make_unique<net::DiskLinkModel>(t, 100.0);
        });
    image_ = std::make_shared<const ProgramImage>(
        1, static_cast<std::size_t>(total_segments) * cfg_.packets_per_segment *
               cfg_.payload_bytes,
        cfg_.packets_per_segment, cfg_.payload_bytes);
    auto puppet = std::make_unique<PuppetApp>();
    puppet_ = puppet.get();
    network_->node(0).set_application(std::move(puppet));
    auto mnp = std::make_unique<MnpNode>(cfg_);
    mnp_ = mnp.get();
    network_->node(1).set_application(std::move(mnp));
    network_->node(0).boot();
    network_->node(1).boot();
    for (std::uint16_t seg = 1; seg <= preload_segments; ++seg) {
      deliver_segment(seg);
    }
    ASSERT_EQ(mnp_->received_segments(), preload_segments);
  }

  void run_for(sim::Time span) { sim_->run_until(sim_->now() + span); }

  void puppet_sends_adv(std::uint16_t seg, std::uint8_t req_ctr) {
    Packet pkt;
    net::AdvertisementMsg adv;
    adv.program_id = image_->id();
    adv.program_bytes = static_cast<std::uint32_t>(image_->total_bytes());
    adv.program_segments = image_->num_segments();
    adv.seg_id = seg;
    adv.req_ctr = req_ctr;
    pkt.payload = adv;
    puppet_->send(std::move(pkt));
  }

  void puppet_sends_request(std::uint16_t seg, net::NodeId dest,
                            std::uint8_t echo) {
    Packet pkt;
    net::DownloadRequestMsg req;
    req.dest = dest;
    req.program_id = image_->id();
    req.seg_id = seg;
    req.req_ctr_echo = echo;
    req.request_all = true;
    pkt.payload = req;
    puppet_->send(std::move(pkt));
  }

  void deliver_segment(std::uint16_t seg) {
    puppet_sends_adv(seg, 0);
    run_for(sim::msec(200));
    Packet start;
    start.payload =
        net::StartDownloadMsg{image_->id(), seg, cfg_.packets_per_segment};
    puppet_->send(std::move(start));
    run_for(sim::msec(100));
    for (std::uint16_t p = 0; p < image_->layout().packets_in(seg); ++p) {
      Packet pkt;
      net::DataMsg d;
      d.program_id = image_->id();
      d.seg_id = seg;
      d.pkt_id = p;
      d.payload = image_->packet_payload(seg, p);
      pkt.payload = std::move(d);
      puppet_->send(std::move(pkt));
      run_for(sim::msec(50));
    }
    run_for(sim::msec(100));
  }

  MnpConfig cfg_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<node::Network> network_;
  std::shared_ptr<const ProgramImage> image_;
  PuppetApp* puppet_ = nullptr;
  MnpNode* mnp_ = nullptr;
};

// Rule 1/2: advertisements carry the segment id; a requester always asks
// for the segment after its highest complete one, regardless of what was
// advertised.
TEST_F(PipelineRuleTest, RequesterAsksForItsExpectedSegment) {
  build(/*total=*/4, /*preload=*/2);
  puppet_->received.clear();
  puppet_sends_adv(/*seg=*/4, /*req_ctr=*/0);  // advertises far ahead
  run_for(sim::msec(300));
  const auto reqs = puppet_->of_type(PacketType::kDownloadRequest);
  ASSERT_FALSE(reqs.empty());
  EXPECT_EQ(reqs.back()->as<net::DownloadRequestMsg>()->seg_id, 3);
}

// Rule 3: a download request for an older segment pulls the advertiser
// down to that segment, even when the request is destined to someone else.
TEST_F(PipelineRuleTest, RequestForOlderSegmentPullsAdvertiserDown) {
  build(/*total=*/4, /*preload=*/3);
  ASSERT_EQ(mnp_->state(), MnpNode::State::kAdvertise);
  ASSERT_EQ(mnp_->advertised_segment(), 3);  // offers its newest
  puppet_sends_request(/*seg=*/1, /*dest=*/42, /*echo=*/0);  // someone else's
  run_for(sim::msec(100));
  EXPECT_EQ(mnp_->advertised_segment(), 1);
}

// Rule 4: a source advertising segment x yields to a source advertising
// y < x that already has enough requesters.
TEST_F(PipelineRuleTest, LowerSegmentWithRequestersTakesPriority) {
  build(/*total=*/4, /*preload=*/3);
  ASSERT_EQ(mnp_->state(), MnpNode::State::kAdvertise);
  puppet_sends_adv(/*seg=*/1, /*req_ctr=*/2);  // meets the threshold (2)
  run_for(sim::msec(100));
  EXPECT_EQ(mnp_->state(), MnpNode::State::kSleep);
}

TEST_F(PipelineRuleTest, LowerSegmentWithoutRequestersDoesNot) {
  build(/*total=*/4, /*preload=*/3);
  puppet_sends_adv(/*seg=*/1, /*req_ctr=*/0);  // below the threshold... but
  // careful: req_ctr 0 also skips the plain competition rule.
  run_for(sim::msec(100));
  EXPECT_EQ(mnp_->state(), MnpNode::State::kAdvertise);
}

// Rule 5: with no interest in the advertised segment, the source moves on
// to offering its next one after K quiet advertisements.
TEST_F(PipelineRuleTest, QuietAdvertiserClimbsToNextSegment) {
  build(/*total=*/4, /*preload=*/3);
  puppet_sends_request(/*seg=*/1, /*dest=*/1, /*echo=*/0);
  run_for(sim::msec(50));
  // It got pulled to 1 and got one requester... let the forward for the
  // puppet play out, then starve it of requests.
  run_for(sim::sec(4));
  // Eventually (K quiet advs per step) it climbs back toward its newest
  // segment.
  for (int i = 0; i < 40 && mnp_->advertised_segment() < 3; ++i) {
    run_for(sim::sec(1));
  }
  EXPECT_EQ(mnp_->advertised_segment(), 3);
}

// Sequential-receive invariant: data for a segment beyond expected_seg is
// never stored, even from a plausible-looking stream.
TEST_F(PipelineRuleTest, FutureSegmentsAreNotStored) {
  build(/*total=*/4, /*preload=*/1);
  network_->node(1).eeprom().set_track_write_once(true);
  const auto writes_before = network_->node(1).eeprom().total_writes();
  Packet pkt;
  net::DataMsg d;
  d.program_id = image_->id();
  d.seg_id = 4;  // far in the future (expected is 2)
  d.pkt_id = 0;
  d.payload = image_->packet_payload(4, 0);
  pkt.payload = std::move(d);
  puppet_->send(std::move(pkt));
  run_for(sim::msec(200));
  EXPECT_EQ(network_->node(1).eeprom().total_writes(), writes_before);
  EXPECT_EQ(mnp_->received_segments(), 1);
}

// A pipelined source is simultaneously a requester: while advertising
// segment k it still requests k+1 from sources that are ahead.
TEST_F(PipelineRuleTest, SourceKeepsRequestingItsNextSegment) {
  build(/*total=*/4, /*preload=*/2);
  ASSERT_EQ(mnp_->state(), MnpNode::State::kAdvertise);
  puppet_->received.clear();
  puppet_sends_adv(/*seg=*/3, /*req_ctr=*/0);
  run_for(sim::msec(300));
  const auto reqs = puppet_->of_type(PacketType::kDownloadRequest);
  ASSERT_FALSE(reqs.empty());
  EXPECT_EQ(reqs.back()->as<net::DownloadRequestMsg>()->seg_id, 3);
}

}  // namespace
}  // namespace mnp::core
