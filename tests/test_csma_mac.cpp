// CSMA MAC behaviour: queueing, backoff, carrier deference, flush.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/csma_mac.hpp"
#include "net/channel.hpp"
#include "net/link_model.hpp"
#include "sim/simulator.hpp"

namespace mnp::net {
namespace {

class CsmaMacTest : public ::testing::Test {
 protected:
  void build(std::size_t n, CsmaMac::Params params = {}) {
    topo_ = std::make_unique<Topology>();
    for (std::size_t i = 0; i < n; ++i) {
      topo_->add({static_cast<double>(i) * 10.0, 0.0});
    }
    links_ = std::make_unique<DiskLinkModel>(*topo_, 15.0);
    metrics_ = std::make_unique<obs::MetricsRegistry>(n);
    channel_ = std::make_unique<Channel>(sim_, *topo_, *links_, *metrics_);
    received_.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      meters_.push_back(std::make_unique<energy::EnergyMeter>());
      radios_.push_back(std::make_unique<Radio>(
          static_cast<NodeId>(i), sim_.scheduler(), *channel_, *meters_[i]));
      channel_->register_radio(*radios_[i]);
      radios_[i]->set_receive_handler([this, i](const Packet&) { ++received_[i]; });
      radios_[i]->turn_on();
      macs_.push_back(std::make_unique<CsmaMac>(
          *radios_[i], sim_.scheduler(), sim_.fork_rng(100 + i), params));
      macs_.back()->attach_metrics(*metrics_);
    }
  }

  static Packet adv() {
    Packet pkt;
    pkt.payload = AdvertisementMsg{};
    return pkt;
  }

  sim::Simulator sim_{3};
  std::unique_ptr<Topology> topo_;
  std::unique_ptr<DiskLinkModel> links_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<Channel> channel_;
  std::vector<std::unique_ptr<energy::EnergyMeter>> meters_;
  std::vector<std::unique_ptr<Radio>> radios_;
  std::vector<std::unique_ptr<CsmaMac>> macs_;
  std::vector<int> received_;
};

TEST_F(CsmaMacTest, DeliversQueuedPackets) {
  build(2);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(macs_[0]->send(adv()));
  sim_.run_until(sim::sec(5));
  EXPECT_EQ(received_[1], 5);
  EXPECT_EQ(macs_[0]->packets_sent(), 5u);
  EXPECT_TRUE(macs_[0]->idle());
}

TEST_F(CsmaMacTest, RejectsWhenRadioOff) {
  build(2);
  radios_[0]->turn_off();
  EXPECT_FALSE(macs_[0]->send(adv()));
  EXPECT_EQ(macs_[0]->packets_dropped(), 1u);
}

TEST_F(CsmaMacTest, QueueOverflowDrops) {
  CsmaMac::Params p;
  p.queue_capacity = 3;
  build(2, p);
  for (int i = 0; i < 10; ++i) macs_[0]->send(adv());
  EXPECT_GE(macs_[0]->packets_dropped(), 6u);
  sim_.run_until(sim::sec(5));
  EXPECT_LE(received_[1], 4);
}

TEST_F(CsmaMacTest, TwoContendersSerializeViaCarrierSense) {
  // Nodes 0 and 1 are in range of each other; both blast 20 packets.
  // Carrier sense + random backoff must avoid most collisions: the far
  // majority of packets arrive.
  build(2);
  for (int i = 0; i < 20; ++i) {
    macs_[0]->send(adv());
    macs_[1]->send(adv());
  }
  sim_.run_until(sim::sec(30));
  EXPECT_GE(received_[0], 16);
  EXPECT_GE(received_[1], 16);
  EXPECT_GT(macs_[0]->congestion_backoffs() + macs_[1]->congestion_backoffs(), 0u);
}

TEST_F(CsmaMacTest, FlushDropsQueue) {
  build(2);
  for (int i = 0; i < 8; ++i) macs_[0]->send(adv());
  macs_[0]->flush();
  sim_.run_until(sim::sec(5));
  // At most the in-flight packet survived the flush.
  EXPECT_LE(received_[1], 1);
}

TEST_F(CsmaMacTest, SendDoneCallbackFires) {
  build(2);
  std::vector<PacketType> done;
  macs_[0]->set_send_done([&](const Packet& pkt) { done.push_back(pkt.type()); });
  macs_[0]->send(adv());
  sim_.run_until(sim::sec(2));
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], PacketType::kAdvertisement);
}

TEST_F(CsmaMacTest, MaxRetriesGivesUp) {
  CsmaMac::Params p;
  p.max_congestion_retries = 2;
  build(3, p);
  // Jam the channel: node 1 transmits a long stream back-to-back while
  // node 0 tries to send one packet with a tiny retry budget.
  std::function<void()> jam = [&] {
    Packet pkt;
    DataMsg d;
    d.payload.assign(22, 1);
    pkt.payload = std::move(d);
    pkt.src = 1;
    radios_[1]->start_transmission(pkt);
    sim_.scheduler().schedule_after(channel_->airtime(pkt) + 1,
                                    [&jam] { jam(); });
  };
  jam();
  macs_[0]->send(adv());
  sim_.run_until(sim::sec(2));
  EXPECT_GE(macs_[0]->packets_dropped(), 1u);
  EXPECT_EQ(macs_[0]->packets_sent(), 0u);
}

TEST_F(CsmaMacTest, QueueDepthObservable) {
  build(2);
  EXPECT_EQ(macs_[0]->queue_depth(), 0u);
  macs_[0]->send(adv());
  macs_[0]->send(adv());
  EXPECT_GE(macs_[0]->queue_depth(), 1u);
  sim_.run_until(sim::sec(5));
  EXPECT_EQ(macs_[0]->queue_depth(), 0u);
}

}  // namespace
}  // namespace mnp::net
