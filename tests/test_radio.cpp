// Radio state machine unit tests (complementing the channel tests, which
// focus on propagation and collision semantics).
#include <gtest/gtest.h>

#include <memory>

#include "net/channel.hpp"
#include "net/link_model.hpp"
#include "net/radio.hpp"
#include "sim/simulator.hpp"

namespace mnp::net {
namespace {

class RadioTest : public ::testing::Test {
 protected:
  RadioTest() {
    topo_.add({0.0, 0.0});
    topo_.add({10.0, 0.0});
    links_ = std::make_unique<DiskLinkModel>(topo_, 15.0);
    channel_ = std::make_unique<Channel>(sim_, topo_, *links_, metrics_);
    r0_ = std::make_unique<Radio>(0, sim_.scheduler(), *channel_, m0_);
    r1_ = std::make_unique<Radio>(1, sim_.scheduler(), *channel_, m1_);
    channel_->register_radio(*r0_);
    channel_->register_radio(*r1_);
  }

  static Packet adv() {
    Packet pkt;
    pkt.payload = AdvertisementMsg{};
    return pkt;
  }

  sim::Simulator sim_{1};
  Topology topo_;
  std::unique_ptr<DiskLinkModel> links_;
  obs::MetricsRegistry metrics_{2};
  std::unique_ptr<Channel> channel_;
  energy::EnergyMeter m0_, m1_;
  std::unique_ptr<Radio> r0_, r1_;
};

TEST_F(RadioTest, BootsOff) {
  EXPECT_EQ(r0_->state(), Radio::State::kOff);
  EXPECT_FALSE(r0_->is_on());
  EXPECT_FALSE(r0_->is_listening());
}

TEST_F(RadioTest, OnOffTransitions) {
  r0_->turn_on();
  EXPECT_EQ(r0_->state(), Radio::State::kListening);
  EXPECT_TRUE(r0_->is_on());
  r0_->turn_off();
  EXPECT_EQ(r0_->state(), Radio::State::kOff);
}

TEST_F(RadioTest, RepeatedTransitionsAreIdempotent) {
  r0_->turn_on();
  r0_->turn_on();
  EXPECT_EQ(r0_->state(), Radio::State::kListening);
  r0_->turn_off();
  r0_->turn_off();
  EXPECT_EQ(r0_->state(), Radio::State::kOff);
}

TEST_F(RadioTest, MeterIntegratesOnTime) {
  r0_->turn_on();
  sim_.scheduler().schedule_at(sim::sec(5), [this] { r0_->turn_off(); });
  sim_.run_until(sim::sec(10));
  EXPECT_EQ(m0_.active_radio_time(sim::sec(10)), sim::sec(5));
}

TEST_F(RadioTest, TransmittingStateDuringAirtime) {
  r0_->turn_on();
  EXPECT_TRUE(r0_->start_transmission(adv()));
  EXPECT_EQ(r0_->state(), Radio::State::kTransmitting);
  sim_.run_until(sim::sec(1));
  EXPECT_EQ(r0_->state(), Radio::State::kListening);
}

TEST_F(RadioTest, SendDoneFires) {
  int done = 0;
  r0_->set_send_done_handler([&] { ++done; });
  r0_->turn_on();
  r0_->start_transmission(adv());
  sim_.run_until(sim::sec(1));
  EXPECT_EQ(done, 1);
}

TEST_F(RadioTest, TurnOnCancelsPendingOff) {
  r0_->turn_on();
  r0_->start_transmission(adv());
  r0_->turn_off();  // deferred: transmitting
  r0_->turn_on();   // changes its mind before airtime ends
  sim_.run_until(sim::sec(1));
  EXPECT_EQ(r0_->state(), Radio::State::kListening);
}

TEST_F(RadioTest, DeliverOnlyWhileListening) {
  int received = 0;
  r1_->set_receive_handler([&](const Packet&) { ++received; });
  r1_->deliver(adv());  // off: dropped
  EXPECT_EQ(received, 0);
  r1_->turn_on();
  r1_->deliver(adv());
  EXPECT_EQ(received, 1);
  EXPECT_EQ(m1_.rx_packets(), 1u);
}

TEST_F(RadioTest, SensesCarrierOfNeighbor) {
  r0_->turn_on();
  r1_->turn_on();
  EXPECT_FALSE(r1_->senses_carrier());
  r0_->start_transmission(adv());
  EXPECT_TRUE(r1_->senses_carrier());
  sim_.run_until(sim::sec(1));
  EXPECT_FALSE(r1_->senses_carrier());
}

TEST_F(RadioTest, TxChargesMeter) {
  r0_->turn_on();
  r0_->start_transmission(adv());
  sim_.run_until(sim::sec(1));
  EXPECT_EQ(m0_.tx_packets(), 1u);
}

}  // namespace
}  // namespace mnp::net
