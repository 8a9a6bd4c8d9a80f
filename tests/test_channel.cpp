// Channel semantics: delivery, half-duplex, collisions (including hidden
// terminals), carrier sense, and the concurrent-bulk-sender monitor.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "net/channel.hpp"
#include "net/link_model.hpp"
#include "net/radio.hpp"
#include "scenario/scenario_link_model.hpp"
#include "sim/simulator.hpp"

namespace mnp::net {
namespace {

// Line of nodes 10 ft apart; disk range 15 ft => only adjacent nodes hear
// each other (interference_factor widens that in specific tests).
class ChannelTest : public ::testing::Test {
 protected:
  void build(std::size_t n, double range, double interference = 1.0,
             double spacing = 10.0) {
    topo_ = std::make_unique<Topology>();
    for (std::size_t i = 0; i < n; ++i) {
      topo_->add({static_cast<double>(i) * spacing, 0.0});
    }
    links_ = std::make_unique<DiskLinkModel>(*topo_, range, interference);
    channel_ = std::make_unique<Channel>(sim_, *topo_, *links_);
    received_.assign(n, {});
    for (std::size_t i = 0; i < n; ++i) {
      meters_.push_back(std::make_unique<energy::EnergyMeter>());
      radios_.push_back(std::make_unique<Radio>(
          static_cast<NodeId>(i), sim_.scheduler(), *channel_, *meters_[i]));
      channel_->register_radio(*radios_[i]);
      radios_[i]->set_receive_handler([this, i](const Packet& pkt) {
        received_[i].push_back(pkt);
      });
      radios_[i]->turn_on();
    }
  }

  static Packet data_packet() {
    DataMsg d;
    d.payload.assign(22, 0x5A);
    Packet pkt;
    pkt.payload = std::move(d);
    return pkt;
  }

  static Packet adv_packet() {
    Packet pkt;
    pkt.payload = AdvertisementMsg{};
    return pkt;
  }

  sim::Simulator sim_{1};
  std::unique_ptr<Topology> topo_;
  std::unique_ptr<DiskLinkModel> links_;
  std::unique_ptr<Channel> channel_;
  std::vector<std::unique_ptr<energy::EnergyMeter>> meters_;
  std::vector<std::unique_ptr<Radio>> radios_;
  std::vector<std::vector<Packet>> received_;
};

TEST_F(ChannelTest, DeliversToNeighborsOnly) {
  build(4, 15.0);
  Packet pkt = adv_packet();
  pkt.src = 1;
  EXPECT_TRUE(radios_[1]->start_transmission(pkt));
  sim_.run_until(sim::sec(1));
  EXPECT_EQ(received_[0].size(), 1u);
  EXPECT_EQ(received_[2].size(), 1u);
  EXPECT_TRUE(received_[3].empty());  // 20 ft away
  EXPECT_TRUE(received_[1].empty());  // sender does not hear itself
}

TEST_F(ChannelTest, AirtimeMatchesBitrate) {
  build(2, 15.0);
  const Packet pkt = adv_packet();
  // 19.2 kbps: airtime_us = bytes*8/19200*1e6.
  const auto expected = static_cast<sim::Time>(
      static_cast<double>(pkt.wire_bytes()) * 8.0 / 19200.0 * 1e6);
  EXPECT_EQ(channel_->airtime(pkt), expected);
}

TEST_F(ChannelTest, OffRadioReceivesNothing) {
  build(2, 15.0);
  radios_[1]->turn_off();
  radios_[0]->start_transmission(adv_packet());
  sim_.run_until(sim::sec(1));
  EXPECT_TRUE(received_[1].empty());
}

TEST_F(ChannelTest, TurningOnMidPacketMissesIt) {
  build(2, 15.0);
  radios_[1]->turn_off();
  radios_[0]->start_transmission(adv_packet());
  // Turn on halfway through the preamble: decode must fail.
  sim_.scheduler().schedule_after(channel_->airtime(adv_packet()) / 2,
                                  [&] { radios_[1]->turn_on(); });
  sim_.run_until(sim::sec(1));
  EXPECT_TRUE(received_[1].empty());
}

TEST_F(ChannelTest, TurningOffMidPacketLosesIt) {
  build(2, 15.0);
  radios_[0]->start_transmission(adv_packet());
  sim_.scheduler().schedule_after(channel_->airtime(adv_packet()) / 2,
                                  [&] { radios_[1]->turn_off(); });
  sim_.run_until(sim::sec(1));
  EXPECT_TRUE(received_[1].empty());
}

TEST_F(ChannelTest, OverlappingTransmissionsCollideAtCommonListener) {
  build(3, 15.0);
  // 0 and 2 both reach 1; they cannot hear each other (20 ft apart) —
  // the canonical hidden-terminal scenario.
  radios_[0]->start_transmission(adv_packet());
  radios_[2]->start_transmission(adv_packet());
  sim_.run_until(sim::sec(1));
  EXPECT_TRUE(received_[1].empty());
  EXPECT_GE(channel_->collisions(), 1u);
}

TEST_F(ChannelTest, StaggeredTransmissionsBothArrive) {
  build(3, 15.0);
  radios_[0]->start_transmission(adv_packet());
  const sim::Time airtime = channel_->airtime(adv_packet());
  sim_.scheduler().schedule_after(airtime + sim::msec(1), [&] {
    radios_[2]->start_transmission(adv_packet());
  });
  sim_.run_until(sim::sec(1));
  EXPECT_EQ(received_[1].size(), 2u);
  EXPECT_EQ(channel_->collisions(), 0u);
}

TEST_F(ChannelTest, PartialOverlapStillCorruptsBoth) {
  build(3, 15.0);
  radios_[0]->start_transmission(adv_packet());
  sim_.scheduler().schedule_after(channel_->airtime(adv_packet()) - 100, [&] {
    radios_[2]->start_transmission(adv_packet());
  });
  sim_.run_until(sim::sec(1));
  EXPECT_TRUE(received_[1].empty());
}

TEST_F(ChannelTest, InterferenceWithoutDecodabilityStillCorrupts) {
  // Node 2 is inside node 0's interference range but outside its decode
  // range; 0's energy must still destroy 1->2 packets at node 2.
  build(3, 15.0, /*interference=*/1.8);  // decode 15 ft, interfere 27 ft
  radios_[0]->start_transmission(adv_packet());  // 0 is 20 ft from 2
  radios_[1]->start_transmission(data_packet()); // 1 is 10 ft from 2
  sim_.run_until(sim::sec(1));
  EXPECT_TRUE(received_[2].empty());
}

TEST_F(ChannelTest, HalfDuplexSenderMissesIncomingPackets) {
  build(2, 15.0);
  radios_[0]->start_transmission(adv_packet());
  radios_[1]->start_transmission(adv_packet());
  sim_.run_until(sim::sec(1));
  EXPECT_TRUE(received_[0].empty());
  EXPECT_TRUE(received_[1].empty());
}

TEST_F(ChannelTest, CarrierSenseSeesNeighborTransmission) {
  build(3, 15.0);
  EXPECT_FALSE(channel_->carrier_busy(1));
  radios_[0]->start_transmission(adv_packet());
  EXPECT_TRUE(channel_->carrier_busy(1));   // neighbor
  EXPECT_TRUE(channel_->carrier_busy(0));   // own transmission
  EXPECT_FALSE(channel_->carrier_busy(2));  // out of range
  sim_.run_until(sim::sec(1));
  EXPECT_FALSE(channel_->carrier_busy(1));
}

TEST_F(ChannelTest, BulkOverlapMonitorCountsConcurrentDataSenders) {
  build(3, 15.0);
  radios_[0]->start_transmission(data_packet());
  radios_[2]->start_transmission(data_packet());  // shares victim node 1
  sim_.run_until(sim::sec(1));
  EXPECT_GE(channel_->concurrent_bulk_overlaps(), 1u);
}

TEST_F(ChannelTest, BulkOverlapIgnoresControlTraffic) {
  build(3, 15.0);
  radios_[0]->start_transmission(adv_packet());
  radios_[2]->start_transmission(adv_packet());
  sim_.run_until(sim::sec(1));
  EXPECT_EQ(channel_->concurrent_bulk_overlaps(), 0u);
}

TEST_F(ChannelTest, DistantBulkSendersDoNotCount) {
  build(6, 15.0);
  radios_[0]->start_transmission(data_packet());
  radios_[5]->start_transmission(data_packet());  // 50 ft away, no shared victim
  sim_.run_until(sim::sec(1));
  EXPECT_EQ(channel_->concurrent_bulk_overlaps(), 0u);
}

TEST_F(ChannelTest, ReceptionChargesTheMeter) {
  build(2, 15.0);
  radios_[0]->start_transmission(adv_packet());
  sim_.run_until(sim::sec(1));
  EXPECT_EQ(meters_[1]->rx_packets(), 1u);
  EXPECT_EQ(meters_[0]->tx_packets(), 1u);
}

TEST_F(ChannelTest, ObserverSeesTrafficAndCollisions) {
  struct Observer : ChannelObserver {
    int transmits = 0, delivers = 0, collisions = 0;
    void on_transmit(NodeId, const Packet&, sim::Time) override { ++transmits; }
    void on_deliver(NodeId, NodeId, const Packet&, sim::Time) override { ++delivers; }
    void on_collision(NodeId, sim::Time) override { ++collisions; }
  } observer;
  build(3, 15.0);
  channel_->set_observer(&observer);
  radios_[0]->start_transmission(adv_packet());
  radios_[2]->start_transmission(adv_packet());
  sim_.run_until(sim::sec(1));
  EXPECT_EQ(observer.transmits, 2);
  EXPECT_EQ(observer.delivers, 0);
  EXPECT_GE(observer.collisions, 1);
}

TEST_F(ChannelTest, PendingOffDeferredUntilTransmissionEnds) {
  build(2, 15.0);
  radios_[0]->start_transmission(adv_packet());
  radios_[0]->turn_off();  // mid-transmission: deferred
  EXPECT_EQ(radios_[0]->state(), Radio::State::kTransmitting);
  sim_.run_until(sim::sec(1));
  EXPECT_EQ(radios_[0]->state(), Radio::State::kOff);
  // The packet still went out intact.
  EXPECT_EQ(received_[1].size(), 1u);
}

TEST_F(ChannelTest, CannotTransmitWhileOffOrBusy) {
  build(2, 15.0);
  radios_[0]->turn_off();
  EXPECT_FALSE(radios_[0]->start_transmission(adv_packet()));
  radios_[0]->turn_on();
  EXPECT_TRUE(radios_[0]->start_transmission(adv_packet()));
  EXPECT_FALSE(radios_[0]->start_transmission(adv_packet()));  // busy
}

// --- neighbor cache vs. brute-force oracle -------------------------------
//
// The cached hot path must be *bit-identical* to the neighbor_cache=false
// oracle: same candidate sets in the same order, hence the same RNG stream,
// hence the same deliveries, collisions and carrier-sense answers on any
// topology.
class EquivalenceStack {
 public:
  EquivalenceStack(Channel::Params cp, std::size_t n) : sim_(99) {
    sim::Rng place(1234);  // same placement in both stacks
    for (std::size_t i = 0; i < n; ++i) {
      topo_.add({place.uniform_real(0.0, 120.0),
                 place.uniform_real(0.0, 120.0)});
    }
    EmpiricalLinkModel::Params lp;
    links_ = std::make_unique<EmpiricalLinkModel>(topo_, lp, sim::Rng(777));
    channel_ = std::make_unique<Channel>(sim_, topo_, *links_, cp);
    received_.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      meters_.push_back(std::make_unique<energy::EnergyMeter>());
      radios_.push_back(std::make_unique<Radio>(
          static_cast<NodeId>(i), sim_.scheduler(), *channel_, *meters_[i]));
      channel_->register_radio(*radios_[i]);
      radios_[i]->set_receive_handler(
          [this, i](const Packet&) { ++received_[i]; });
      radios_[i]->turn_on();
    }
  }

  /// Deterministic traffic pattern: staggered, overlapping transmissions
  /// (data + adv) from scattered sources, two power scales, plus radios
  /// toggling off mid-run and periodic carrier-sense probes.
  void drive() {
    sim::Rng traffic(4242);  // same schedule in both stacks
    for (int burst = 0; burst < 40; ++burst) {
      const auto at = static_cast<sim::Time>(traffic.uniform_int(0, 900000));
      const auto who =
          static_cast<NodeId>(traffic.uniform_int(0, static_cast<std::int64_t>(radios_.size()) - 1));
      const bool bulk = traffic.bernoulli(0.5);
      const double scale = traffic.bernoulli(0.25) ? 0.5 : 1.0;
      sim_.scheduler().schedule_at(at, [this, who, bulk, scale] {
        Packet pkt;
        if (bulk) {
          DataMsg d;
          d.payload.assign(22, 0x5A);
          pkt.payload = std::move(d);
        } else {
          pkt.payload = AdvertisementMsg{};
        }
        pkt.src = who;
        pkt.power_scale = scale;
        radios_[who]->start_transmission(pkt);
      });
      if (burst % 5 == 0) {
        const auto victim =
            static_cast<NodeId>(traffic.uniform_int(0, static_cast<std::int64_t>(radios_.size()) - 1));
        sim_.scheduler().schedule_at(at + 2000, [this, victim] {
          radios_[victim]->turn_off();
        });
        sim_.scheduler().schedule_at(at + 50000, [this, victim] {
          radios_[victim]->turn_on();
        });
      }
      sim_.scheduler().schedule_at(at + 1000, [this] {
        for (std::size_t i = 0; i < radios_.size(); ++i) {
          carrier_samples_.push_back(channel_->carrier_busy(static_cast<NodeId>(i)));
        }
      });
    }
    sim_.run_until(sim::sec(2));
  }

  sim::Simulator sim_;
  Topology topo_;
  std::unique_ptr<EmpiricalLinkModel> links_;
  std::unique_ptr<Channel> channel_;
  std::vector<std::unique_ptr<energy::EnergyMeter>> meters_;
  std::vector<std::unique_ptr<Radio>> radios_;
  std::vector<std::uint64_t> received_;
  std::vector<bool> carrier_samples_;
};

Channel::Params grid_params() { return Channel::Params{}; }

Channel::Params brute_params() {
  Channel::Params cp;
  cp.neighbor_cache = false;
  return cp;
}

TEST(ChannelNeighborCache, MatchesBruteForceOnRandomTopology) {
  EquivalenceStack grid(grid_params(), 48);
  EquivalenceStack brute(brute_params(), 48);
  grid.drive();
  brute.drive();

  EXPECT_EQ(grid.channel_->transmissions(), brute.channel_->transmissions());
  EXPECT_EQ(grid.channel_->deliveries(), brute.channel_->deliveries());
  EXPECT_EQ(grid.channel_->collisions(), brute.channel_->collisions());
  EXPECT_EQ(grid.channel_->concurrent_bulk_overlaps(),
            brute.channel_->concurrent_bulk_overlaps());
  EXPECT_EQ(grid.received_, brute.received_);
  EXPECT_EQ(grid.carrier_samples_, brute.carrier_samples_);
  // Sanity: the run exercised something in every dimension we compare.
  EXPECT_GT(grid.channel_->deliveries(), 0u);
  EXPECT_GT(grid.channel_->collisions(), 0u);
  // Two power scales were in play, so two neighbor caches materialized,
  // lazily: rows were built on demand through the grid.
  EXPECT_EQ(grid.channel_->cached_power_scales(), 2u);
  EXPECT_EQ(brute.channel_->cached_power_scales(), 0u);
  EXPECT_GT(grid.channel_->cache_repairs(), 0u);
  EXPECT_GT(grid.channel_->grid_cells(), 0u);
}

TEST(ChannelNeighborCache, PairwiseQueriesMatchLinkModel) {
  // The sparse reach rows and per-edge success cache must agree with the
  // link model for every directed pair, at a non-default power scale too.
  EquivalenceStack cached(grid_params(), 24);
  EquivalenceStack brute(brute_params(), 24);
  cached.drive();
  brute.drive();
  for (std::size_t s = 0; s < 24; ++s) {
    ASSERT_EQ(cached.channel_->carrier_busy(static_cast<NodeId>(s)),
              brute.channel_->carrier_busy(static_cast<NodeId>(s)));
  }
}

// --- grid path under churn: mobility, partitions, degrade windows ---------
//
// Same comparison, but the world itself changes mid-run: nodes teleport
// between waypoints (Topology::set_position, exactly what the scenario
// engine's mobility interpolation calls) and a ScenarioLinkModel opens
// partition and degrade windows. The cached path repairs its rows
// incrementally; brute consults the model live. Both must produce
// bit-identical deliveries, collisions and carrier-sense answers on every
// seed.

// A 25 ft disk (interference x1.5) that reports no finite interference
// bound (LinkModel's default, -1) at power scales below `bounded_from`:
// the channel builds those scales' rows by linear scan, never through the
// grid. 0 is the plain disk, +inf a model bounded at no scale, and 1.0
// mixes both in one run (scale 0.5 unbounded, scale 1.0 on the grid).
class PartlyBoundedDisk final : public LinkModel {
 public:
  PartlyBoundedDisk(const Topology& topo, double bounded_from)
      : disk_(topo, 25.0, 1.5), bounded_from_(bounded_from) {}

  double packet_success(NodeId src, NodeId dst, double ps) const override {
    return disk_.packet_success(src, dst, ps);
  }
  bool interferes(NodeId src, NodeId dst, double ps) const override {
    return disk_.interferes(src, dst, ps);
  }
  double max_interference_range(double ps) const override {
    return ps < bounded_from_ ? -1.0 : disk_.max_interference_range(ps);
  }

 private:
  DiskLinkModel disk_;
  double bounded_from_;
};

class ChurnStack {
 public:
  ChurnStack(Channel::Params cp, std::size_t n, std::uint64_t seed,
             double bounded_from)
      : sim_(99 + seed) {
    sim::Rng place(1234 + seed);  // same placement in both stacks
    for (std::size_t i = 0; i < n; ++i) {
      topo_.add({place.uniform_real(0.0, 150.0),
                 place.uniform_real(0.0, 150.0)});
    }
    links_ = std::make_unique<scenario::ScenarioLinkModel>(
        std::make_unique<PartlyBoundedDisk>(topo_, bounded_from), n);
    channel_ = std::make_unique<Channel>(sim_, topo_, *links_, cp);
    received_.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      meters_.push_back(std::make_unique<energy::EnergyMeter>());
      radios_.push_back(std::make_unique<Radio>(
          static_cast<NodeId>(i), sim_.scheduler(), *channel_, *meters_[i]));
      channel_->register_radio(*radios_[i]);
      radios_[i]->set_receive_handler(
          [this, i](const Packet&) { ++received_[i]; });
      radios_[i]->turn_on();
    }
  }

  void drive(std::uint64_t seed) {
    const auto n = static_cast<std::int64_t>(radios_.size());
    sim::Rng traffic(4242 + seed);  // same schedule in both stacks
    for (int burst = 0; burst < 60; ++burst) {
      const auto at = static_cast<sim::Time>(traffic.uniform_int(0, 1800000));
      const auto who = static_cast<NodeId>(traffic.uniform_int(0, n - 1));
      const bool bulk = traffic.bernoulli(0.5);
      const double scale = traffic.bernoulli(0.25) ? 0.5 : 1.0;
      sim_.scheduler().schedule_at(at, [this, who, bulk, scale] {
        Packet pkt;
        if (bulk) {
          DataMsg d;
          d.payload.assign(22, 0x5A);
          pkt.payload = std::move(d);
        } else {
          pkt.payload = AdvertisementMsg{};
        }
        pkt.src = who;
        pkt.power_scale = scale;
        radios_[who]->start_transmission(pkt);
      });
      if (burst % 4 == 0) {  // waypoint hop between two transmissions
        const auto mover = static_cast<NodeId>(traffic.uniform_int(0, n - 1));
        const double nx = traffic.uniform_real(0.0, 150.0);
        const double ny = traffic.uniform_real(0.0, 150.0);
        sim_.scheduler().schedule_at(at + 500, [this, mover, nx, ny] {
          topo_.set_position(mover, {nx, ny});
        });
      }
      if (burst % 7 == 0) {
        sim_.scheduler().schedule_at(at + 1000, [this] {
          for (std::size_t i = 0; i < radios_.size(); ++i) {
            carrier_samples_.push_back(
                channel_->carrier_busy(static_cast<NodeId>(i)));
          }
        });
      }
    }
    sim_.scheduler().schedule_at(400000, [this] {
      links_->set_partition({{0, 1, 2, 3, 4}, {5, 6, 7}});
    });
    sim_.scheduler().schedule_at(900000, [this] { links_->clear_partition(); });
    sim_.scheduler().schedule_at(1100000, [this] {
      links_->begin_degrade(0.5, {2, 9, 11});
    });
    sim_.scheduler().schedule_at(1500000, [this] {
      links_->end_degrade(0.5, {2, 9, 11});
    });
    sim_.run_until(sim::sec(3));
  }

  sim::Simulator sim_;
  Topology topo_;
  std::unique_ptr<scenario::ScenarioLinkModel> links_;
  std::unique_ptr<Channel> channel_;
  std::vector<std::unique_ptr<energy::EnergyMeter>> meters_;
  std::vector<std::unique_ptr<Radio>> radios_;
  std::vector<std::uint64_t> received_;
  std::vector<bool> carrier_samples_;
};

TEST(ChannelGridChurn, MatchesBruteUnderMobilityAndPartitions) {
  constexpr double kUnbounded = std::numeric_limits<double>::infinity();
  for (const double bounded_from : {0.0, 1.0, kUnbounded}) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      SCOPED_TRACE("bounded_from " + std::to_string(bounded_from) + " seed " +
                   std::to_string(seed));
      ChurnStack grid(grid_params(), 32, seed, bounded_from);
      ChurnStack brute(brute_params(), 32, seed, bounded_from);
      grid.drive(seed);
      brute.drive(seed);

      EXPECT_EQ(grid.channel_->transmissions(),
                brute.channel_->transmissions());
      EXPECT_EQ(grid.channel_->deliveries(), brute.channel_->deliveries());
      EXPECT_EQ(grid.channel_->collisions(), brute.channel_->collisions());
      EXPECT_EQ(grid.channel_->concurrent_bulk_overlaps(),
                brute.channel_->concurrent_bulk_overlaps());
      EXPECT_EQ(grid.received_, brute.received_);
      EXPECT_EQ(grid.carrier_samples_, brute.carrier_samples_);
      // The run exercised delivery and the repair machinery, through the
      // grid exactly when some scale had a finite bound.
      EXPECT_GT(brute.channel_->deliveries(), 0u);
      EXPECT_GT(grid.channel_->cache_invalidations(), 0u);
      EXPECT_GT(grid.channel_->cache_repairs(), 0u);
      EXPECT_EQ(grid.channel_->grid_cells() > 0, bounded_from != kUnbounded);
    }
  }
}

TEST(ChannelGridChurn, CarrierSenseStaysExactAfterMoves) {
  // Regression for the carrier-sense path: it must consult the *repaired*
  // reach rows after a move, never a stale row and never a full scan that
  // disagrees with delivery. Node 2 starts out of range of 0, walks into
  // range mid-transmission-gap, and back out.
  sim::Simulator sim(3);
  Topology topo;
  topo.add({0.0, 0.0});
  topo.add({10.0, 0.0});
  topo.add({100.0, 0.0});
  DiskLinkModel links(topo, 15.0);
  Channel channel(sim, topo, links, grid_params());
  energy::EnergyMeter m0, m1, m2;
  Radio r0(0, sim.scheduler(), channel, m0);
  Radio r1(1, sim.scheduler(), channel, m1);
  Radio r2(2, sim.scheduler(), channel, m2);
  for (Radio* r : {&r0, &r1, &r2}) {
    channel.register_radio(*r);
    r->turn_on();
  }
  Packet pkt;
  pkt.payload = AdvertisementMsg{};

  r0.start_transmission(pkt);
  EXPECT_TRUE(channel.carrier_busy(1));
  EXPECT_FALSE(channel.carrier_busy(2));  // 100 ft away
  sim.run_until(sim::sec(1));

  topo.set_position(2, {12.0, 0.0});  // walks next to the source
  r0.start_transmission(pkt);
  EXPECT_TRUE(channel.carrier_busy(2));
  sim.run_until(sim::sec(2));
  EXPECT_GE(channel.cache_invalidations(), 1u);

  topo.set_position(2, {100.0, 0.0});  // and back out of range
  r0.start_transmission(pkt);
  EXPECT_FALSE(channel.carrier_busy(2));
  sim.run_until(sim::sec(3));
}

// --- cache staleness: world mutations must invalidate ---------------------

TEST_F(ChannelTest, MovingANodeInvalidatesTheNeighborCache) {
  build(4, 15.0);
  Packet pkt = adv_packet();
  pkt.src = 1;
  radios_[1]->start_transmission(pkt);
  sim_.run_until(sim::sec(1));
  ASSERT_EQ(received_[3].size(), 0u);  // 20 ft away at (30, 0)
  ASSERT_EQ(channel_->cached_power_scales(), 1u);
  EXPECT_EQ(channel_->cache_invalidations(), 0u);

  // Node 3 walks next door to node 1. Without invalidation, the cached
  // reach bitset would keep saying 1 cannot reach 3.
  topo_->set_position(3, {15.0, 0.0});
  radios_[1]->start_transmission(pkt);
  sim_.run_until(sim::sec(2));
  EXPECT_EQ(channel_->cache_invalidations(), 1u);
  EXPECT_EQ(received_[3].size(), 1u);

  // No further churn: the rebuilt cache sticks.
  radios_[1]->start_transmission(pkt);
  sim_.run_until(sim::sec(3));
  EXPECT_EQ(channel_->cache_invalidations(), 1u);
  EXPECT_EQ(received_[3].size(), 2u);
}

// A LinkModel whose answers can be toggled off (a stand-in for the
// scenario decorator's partition windows), advertised via revision().
class SwitchableLinkModel final : public LinkModel {
 public:
  explicit SwitchableLinkModel(std::unique_ptr<LinkModel> inner)
      : inner_(std::move(inner)) {}

  double packet_success(NodeId src, NodeId dst, double ps) const override {
    return severed_ ? 0.0 : inner_->packet_success(src, dst, ps);
  }
  bool interferes(NodeId src, NodeId dst, double ps) const override {
    return severed_ ? false : inner_->interferes(src, dst, ps);
  }
  std::uint64_t revision() const override { return revision_; }

  void set_severed(bool severed) {
    severed_ = severed;
    ++revision_;
  }

 private:
  std::unique_ptr<LinkModel> inner_;
  bool severed_ = false;
  std::uint64_t revision_ = 0;
};

TEST(ChannelLinkRevision, RevisionBumpInvalidatesTheNeighborCache) {
  sim::Simulator sim(7);
  Topology topo;
  topo.add({0.0, 0.0});
  topo.add({10.0, 0.0});
  SwitchableLinkModel links(std::make_unique<DiskLinkModel>(topo, 15.0));
  Channel channel(sim, topo, links);
  energy::EnergyMeter m0, m1;
  Radio r0(0, sim.scheduler(), channel, m0);
  Radio r1(1, sim.scheduler(), channel, m1);
  channel.register_radio(r0);
  channel.register_radio(r1);
  std::size_t heard = 0;
  r1.set_receive_handler([&heard](const Packet&) { ++heard; });
  r0.turn_on();
  r1.turn_on();

  Packet pkt;
  pkt.payload = AdvertisementMsg{};
  r0.start_transmission(pkt);
  sim.run_until(sim::sec(1));
  ASSERT_EQ(heard, 1u);

  links.set_severed(true);
  r0.start_transmission(pkt);
  sim.run_until(sim::sec(2));
  EXPECT_EQ(heard, 1u);  // the severed link must not deliver
  EXPECT_EQ(channel.cache_invalidations(), 1u);

  links.set_severed(false);
  r0.start_transmission(pkt);
  sim.run_until(sim::sec(3));
  EXPECT_EQ(heard, 2u);
  EXPECT_EQ(channel.cache_invalidations(), 2u);
}

}  // namespace
}  // namespace mnp::net
