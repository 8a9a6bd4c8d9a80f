// Unit-level tests for the baseline protocols, driven by a scripted
// puppet peer (integration behaviour is covered in test_deluge/moap/xnp
// and test_ncast).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baselines/deluge_node.hpp"
#include "baselines/moap_node.hpp"
#include "baselines/ncast_node.hpp"
#include "node/network.hpp"
#include "sim/simulator.hpp"

namespace mnp::baselines {
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
  std::size_t count(PacketType t) const {
    std::size_t n = 0;
    for (const auto& p : received) {
      if (p.type() == t) ++n;
    }
    return n;
  }
  const Packet* last(PacketType t) const {
    const Packet* out = nullptr;
    for (const auto& p : received) {
      if (p.type() == t) out = &p;
    }
    return out;
  }

 private:
  node::Node* node_ = nullptr;
};

}  // namespace

// ---------------------------------------------------------------------------
// The Trickle control plane (trickle_node.hpp), on Deluge and on NCast. Each
// protocol supplies its config, how to forge its summary and its request,
// which packet types to count, and what its burst and its first request
// look like. The traits sit outside the anonymous namespace, so the test
// names read ControlPlaneTest.<case><mnp::baselines::DelugeTraits>.
// ---------------------------------------------------------------------------

struct DelugeTraits {
  using Node = DelugeNode;
  static constexpr PacketType kSummary = PacketType::kDelugeSummary;
  static constexpr PacketType kRequest = PacketType::kDelugeRequest;
  static constexpr PacketType kData = PacketType::kDelugeData;

  static DelugeConfig config() {
    DelugeConfig cfg;
    cfg.packets_per_page = 8;
    cfg.payload_bytes = 4;
    return cfg;
  }

  static Packet summary(const core::ProgramImage& image,
                        std::uint16_t complete) {
    net::DelugeSummaryMsg msg;
    msg.version = image.id();
    msg.total_pages = image.num_segments();
    msg.complete_pages = complete;
    msg.program_bytes = static_cast<std::uint32_t>(image.total_bytes());
    Packet pkt;
    pkt.payload = msg;
    return pkt;
  }

  /// Asks for packets 2 and 5 of `unit`.
  static Packet request(net::NodeId dest, std::uint16_t unit) {
    net::DelugeRequestMsg req;
    req.dest = dest;
    req.page = unit;
    req.missing = util::Bitmap(8);
    req.missing.set(2);
    req.missing.set(5);
    Packet pkt;
    pkt.payload = req;
    return pkt;
  }

  /// That request streams exactly the packets it names.
  static void expect_burst(const PuppetApp& puppet) {
    EXPECT_EQ(puppet.count(kData), 2u);
    EXPECT_EQ(puppet.last(kData)->as<net::DelugeDataMsg>()->pkt_id, 5);
  }

  static void expect_first_request(const Packet& pkt) {
    const auto* req = pkt.as<net::DelugeRequestMsg>();
    EXPECT_EQ(req->dest, 0);
    EXPECT_EQ(req->page, 1);              // pages are fetched in order
    EXPECT_EQ(req->missing.count(), 8u);  // whole page missing
  }
};

struct NcastTraits {
  using Node = NcastNode;
  static constexpr PacketType kSummary = PacketType::kNcastAdv;
  static constexpr PacketType kRequest = PacketType::kNcastRequest;
  static constexpr PacketType kData = PacketType::kNcastCoded;

  static NcastConfig config() {
    NcastConfig cfg;
    cfg.generation_size = 8;
    cfg.payload_bytes = 4;
    return cfg;
  }

  static Packet summary(const core::ProgramImage& image,
                        std::uint16_t complete, std::uint8_t rank = 0) {
    net::NcastAdvMsg msg;
    msg.program_id = image.id();
    msg.program_bytes = static_cast<std::uint32_t>(image.total_bytes());
    msg.total_gens = image.num_segments();
    msg.complete_gens = complete;
    msg.gen_size = 8;
    msg.cur_rank = rank;
    Packet pkt;
    pkt.payload = msg;
    return pkt;
  }

  /// Asks for `unit` from a requester at rank 5 of 8.
  static Packet request(net::NodeId dest, std::uint16_t unit) {
    net::NcastReqMsg req;
    req.dest = dest;
    req.gen = unit;
    req.rank = 5;
    Packet pkt;
    pkt.payload = req;
    return pkt;
  }

  /// A request at rank r streams max(1, k - r) + tx_redundancy coded
  /// packets of its generation: 3 + 2.
  static void expect_burst(const PuppetApp& puppet) {
    EXPECT_EQ(puppet.count(kData), 5u);
    for (const auto& p : puppet.received) {
      if (const auto* coded = p.as<net::NcastCodedMsg>()) {
        EXPECT_EQ(coded->gen, 1);
      }
    }
  }

  static void expect_first_request(const Packet& pkt) {
    const auto* req = pkt.as<net::NcastReqMsg>();
    EXPECT_EQ(req->dest, 0);
    EXPECT_EQ(req->gen, 1);   // generations are fetched in order
    EXPECT_EQ(req->rank, 0);  // nothing decoded yet
  }
};

namespace {

template <typename P>
class ControlPlaneTest : public ::testing::Test {
 protected:
  void build(bool node_is_base) {
    auto cfg = P::config();
    cfg.tau_low = sim::msec(100);
    cfg.tau_high = sim::msec(3200);
    sim_ = std::make_unique<sim::Simulator>(4);
    net::Topology topo;
    topo.add({0.0, 0.0});
    topo.add({10.0, 0.0});
    network_ = std::make_unique<node::Network>(
        *sim_, std::move(topo), [](const net::Topology& t) {
          return std::make_unique<net::DiskLinkModel>(t, 50.0);
        });
    // Two units of 8 packets of 4 bytes.
    image_ = std::make_shared<const core::ProgramImage>(1, 2 * 8 * 4, 8, 4);
    auto puppet = std::make_unique<PuppetApp>();
    puppet_ = puppet.get();
    network_->node(0).set_application(std::move(puppet));
    auto node = node_is_base ? std::make_unique<typename P::Node>(cfg, image_)
                             : std::make_unique<typename P::Node>(cfg);
    node_ = node.get();
    network_->node(1).set_application(std::move(node));
    network_->node(0).boot();
    network_->node(1).boot();
  }

  void run_for(sim::Time span) { sim_->run_until(sim_->now() + span); }

  void puppet_summary(std::uint16_t complete) {
    puppet_->send(P::summary(*image_, complete));
  }

  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<node::Network> network_;
  std::shared_ptr<const core::ProgramImage> image_;
  PuppetApp* puppet_ = nullptr;
  typename P::Node* node_ = nullptr;
};

using Protocols = ::testing::Types<DelugeTraits, NcastTraits>;
TYPED_TEST_SUITE(ControlPlaneTest, Protocols);

TYPED_TEST(ControlPlaneTest, MaintainsSummariesWithTrickleBackoff) {
  this->build(/*node_is_base=*/true);
  this->run_for(sim::sec(2));
  const std::size_t early = this->puppet_->count(TypeParam::kSummary);
  EXPECT_GE(early, 2u);  // fast rounds initially (tau_low = 100 ms)
  this->puppet_->received.clear();
  this->run_for(sim::sec(10));
  // Quiet network: tau doubled toward tau_high, so the rate drops well
  // below the initial one (10 s / 100 ms = 100 would be un-backed-off).
  EXPECT_LT(this->puppet_->count(TypeParam::kSummary), 20u);
}

TYPED_TEST(ControlPlaneTest, ConsistentSummariesSuppressOurs) {
  this->build(/*node_is_base=*/true);
  // Flood it with matching summaries; its own must be suppressed.
  for (int i = 0; i < 40; ++i) {
    this->puppet_summary(this->image_->num_segments());
    this->run_for(sim::msec(100));
  }
  EXPECT_LT(this->puppet_->count(TypeParam::kSummary), 8u);
}

TYPED_TEST(ControlPlaneTest, BehindSummaryTriggersNothingButReset) {
  this->build(/*node_is_base=*/true);
  this->puppet_->received.clear();
  this->puppet_summary(0);  // the puppet claims to have nothing
  this->run_for(sim::msec(400));
  // The base doesn't push unsolicited data; it resets tau and advertises.
  EXPECT_EQ(this->puppet_->count(TypeParam::kData), 0u);
  EXPECT_GE(this->puppet_->count(TypeParam::kSummary), 1u);
}

TYPED_TEST(ControlPlaneTest, AheadSummaryDrawsARequest) {
  this->build(/*node_is_base=*/false);
  this->puppet_summary(2);
  this->run_for(sim::sec(1));
  ASSERT_GE(this->puppet_->count(TypeParam::kRequest), 1u);
  TypeParam::expect_first_request(*this->puppet_->last(TypeParam::kRequest));
}

TYPED_TEST(ControlPlaneTest, RequestedPacketsAreStreamed) {
  this->build(/*node_is_base=*/true);
  this->puppet_->send(TypeParam::request(/*dest=*/1, /*unit=*/1));
  this->run_for(sim::sec(1));
  TypeParam::expect_burst(*this->puppet_);
  EXPECT_EQ(this->node_->state(), TrickleNode::State::kMaintain);
}

TYPED_TEST(ControlPlaneTest, RequestForUnownedUnitIgnored) {
  this->build(/*node_is_base=*/false);  // has no units at all
  this->puppet_->send(TypeParam::request(/*dest=*/1, /*unit=*/1));
  this->run_for(sim::sec(1));
  EXPECT_EQ(this->puppet_->count(TypeParam::kData), 0u);
}

// NCast's own test of "consistent" also compares the working rank. An
// advertiser with the same complete generations but another rank is
// inconsistent without being ahead: tau resets, and no request is drawn,
// since only complete generations are served.
using NcastControlPlaneTest = ControlPlaneTest<NcastTraits>;

TEST_F(NcastControlPlaneTest, RankOnlyDifferenceResetsTauWithoutARequest) {
  build(/*node_is_base=*/false);
  run_for(sim::sec(10));  // quiet: tau backs off to tau_high (3.2 s)
  // A consistent advertisement (same generations, same rank 0) suppresses
  // and resets nothing: at most one advertisement in the next 400 ms.
  puppet_->received.clear();
  puppet_->send(NcastTraits::summary(*image_, 0, /*rank=*/0));
  run_for(sim::msec(400));
  EXPECT_LE(puppet_->count(PacketType::kNcastAdv), 1u);
  // Rank 3 against our 0: tau restarts at 100 ms, so rounds of 100 and
  // 200 ms each advertise within 400 ms.
  puppet_->received.clear();
  puppet_->send(NcastTraits::summary(*image_, 0, /*rank=*/3));
  run_for(sim::msec(400));
  EXPECT_GE(puppet_->count(PacketType::kNcastAdv), 2u);
  EXPECT_EQ(puppet_->count(PacketType::kNcastRequest), 0u);
  EXPECT_EQ(node_->state(), TrickleNode::State::kMaintain);
  EXPECT_EQ(node_->complete_gens(), 0);
}

// ---------------------------------------------------------------------------
// MOAP
// ---------------------------------------------------------------------------

class MoapUnitTest : public ::testing::Test {
 protected:
  void build(bool node_is_base) {
    cfg_.payload_bytes = 4;
    cfg_.publish_interval_min = sim::msec(100);
    cfg_.publish_interval_max = sim::msec(200);
    sim_ = std::make_unique<sim::Simulator>(6);
    net::Topology topo;
    topo.add({0.0, 0.0});
    topo.add({10.0, 0.0});
    network_ = std::make_unique<node::Network>(
        *sim_, std::move(topo), [](const net::Topology& t) {
          return std::make_unique<net::DiskLinkModel>(t, 50.0);
        });
    image_ = std::make_shared<const core::ProgramImage>(1, 16 * 4, 128, 4);
    auto puppet = std::make_unique<PuppetApp>();
    puppet_ = puppet.get();
    network_->node(0).set_application(std::move(puppet));
    auto moap = node_is_base ? std::make_unique<MoapNode>(cfg_, image_)
                             : std::make_unique<MoapNode>(cfg_);
    moap_ = moap.get();
    network_->node(1).set_application(std::move(moap));
    network_->node(0).boot();
    network_->node(1).boot();
  }

  void run_for(sim::Time span) { sim_->run_until(sim_->now() + span); }

  MoapConfig cfg_;
  std::unique_ptr<sim::Simulator> sim_;
  std::unique_ptr<node::Network> network_;
  std::shared_ptr<const core::ProgramImage> image_;
  PuppetApp* puppet_ = nullptr;
  MoapNode* moap_ = nullptr;
};

TEST_F(MoapUnitTest, PublisherAnnouncesAndAwaitsSubscribers) {
  build(/*node_is_base=*/true);
  run_for(sim::sec(1));
  EXPECT_GE(puppet_->count(PacketType::kMoapPublish), 1u);
  // No subscriber => no data.
  EXPECT_EQ(puppet_->count(PacketType::kMoapData), 0u);
}

TEST_F(MoapUnitTest, SubscriptionTriggersLinearStream) {
  build(/*node_is_base=*/true);
  run_for(sim::msec(300));  // catch a publish
  Packet sub;
  sub.payload = net::MoapSubscribeMsg{1};
  puppet_->send(std::move(sub));
  run_for(sim::sec(3));
  // The whole 16-packet image is streamed in order.
  EXPECT_EQ(puppet_->count(PacketType::kMoapData), 16u);
  EXPECT_EQ(puppet_->last(PacketType::kMoapData)->as<net::MoapDataMsg>()->pkt_id,
            15);
}

TEST_F(MoapUnitTest, NackDrawsRetransmission) {
  build(/*node_is_base=*/true);
  run_for(sim::msec(300));
  Packet sub;
  sub.payload = net::MoapSubscribeMsg{1};
  puppet_->send(std::move(sub));
  // Wait just until the stream finishes (publisher enters its repair
  // phase) — the repair window is short.
  for (int i = 0; i < 50 && puppet_->count(PacketType::kMoapData) < 16; ++i) {
    run_for(sim::msec(100));
  }
  ASSERT_EQ(puppet_->count(PacketType::kMoapData), 16u);
  puppet_->received.clear();
  Packet nack;
  nack.payload = net::MoapNackMsg{1, 7};
  puppet_->send(std::move(nack));
  run_for(sim::msec(500));
  ASSERT_EQ(puppet_->count(PacketType::kMoapData), 1u);
  EXPECT_EQ(puppet_->last(PacketType::kMoapData)->as<net::MoapDataMsg>()->pkt_id,
            7);
}

TEST_F(MoapUnitTest, ReceiverSubscribesOnPublish) {
  build(/*node_is_base=*/false);
  Packet pub;
  net::MoapPublishMsg msg;
  msg.version = image_->id();
  msg.total_packets = 16;
  msg.program_bytes = static_cast<std::uint32_t>(image_->total_bytes());
  pub.payload = msg;
  puppet_->send(std::move(pub));
  run_for(sim::sec(1));
  EXPECT_EQ(puppet_->count(PacketType::kMoapSubscribe), 1u);
  EXPECT_EQ(moap_->state(), MoapNode::State::kSubscribed);
}

TEST_F(MoapUnitTest, CompletedReceiverBecomesPublisher) {
  build(/*node_is_base=*/false);
  Packet pub;
  net::MoapPublishMsg msg;
  msg.version = image_->id();
  msg.total_packets = 16;
  msg.program_bytes = static_cast<std::uint32_t>(image_->total_bytes());
  pub.payload = msg;
  puppet_->send(std::move(pub));
  run_for(sim::msec(300));
  for (std::uint16_t p = 0; p < 16; ++p) {
    Packet pkt;
    net::MoapDataMsg d;
    d.version = image_->id();
    d.pkt_id = p;
    const std::size_t off = static_cast<std::size_t>(p) * 4;
    d.payload = {image_->bytes().begin() + static_cast<long>(off),
                 image_->bytes().begin() + static_cast<long>(off + 4)};
    pkt.payload = std::move(d);
    puppet_->send(std::move(pkt));
    run_for(sim::msec(50));
  }
  EXPECT_TRUE(moap_->has_complete_image());
  // Hop-by-hop relay: it now publishes.
  puppet_->received.clear();
  run_for(sim::sec(1));
  EXPECT_GE(puppet_->count(PacketType::kMoapPublish), 1u);
}

}  // namespace
}  // namespace mnp::baselines
