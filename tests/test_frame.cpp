// Shared-frame flyweight tests: FramePtr refcounting, FramePool recycling
// (in the pool and through the channel), and whole rendered traces of the
// shared-frame, cached-channel path against the brute-force
// neighbor_cache=false oracle.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "mnp/mnp_node.hpp"
#include "net/channel.hpp"
#include "net/frame.hpp"
#include "net/radio.hpp"
#include "node/network.hpp"
#include "sim/simulator.hpp"
#include "trace/event_log.hpp"

namespace mnp::net {
namespace {

Packet data_packet(std::size_t payload_bytes = 22) {
  DataMsg d;
  d.payload.assign(payload_bytes, 0x5A);
  Packet pkt;
  pkt.payload = std::move(d);
  return pkt;
}

TEST(FramePtr, SharesOnePacketByRefcount) {
  FramePool pool;
  FramePtr a = pool.adopt(data_packet());
  ASSERT_TRUE(a);
  EXPECT_EQ(a.use_count(), 1u);

  FramePtr b = a;  // copy bumps the count, no Packet copy
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_EQ(a.get(), b.get());  // literally the same Packet

  FramePtr c = std::move(b);  // move steals the reference
  EXPECT_FALSE(b);
  EXPECT_EQ(a.use_count(), 2u);

  c.reset();
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(pool.live_frames(), 1u);
  a.reset();
  EXPECT_EQ(pool.live_frames(), 0u);
}

TEST(FramePool, SteadyStateStopsAllocating) {
  FramePool pool;
  for (int i = 0; i < 100; ++i) {
    FramePtr f = pool.adopt(data_packet());
    FramePtr extra = f;  // a second holder, like the channel's Active record
  }
  // One node allocation serviced all 100 transmissions.
  EXPECT_EQ(pool.node_allocations(), 1u);
  EXPECT_EQ(pool.pooled_nodes(), 1u);
}

/// A frame of message type `Msg` whose payload came from the pool; when it
/// dies, the pool must get the buffer's capacity back.
template <typename Msg>
void expect_payload_reclaimed(FramePool& pool) {
  Msg msg;
  msg.payload = pool.acquire_payload();
  msg.payload.assign(64, 0xAB);
  Packet pkt;
  pkt.payload = std::move(msg);
  SCOPED_TRACE(to_string(pkt.type()));
  {
    FramePtr f = pool.adopt(std::move(pkt));
  }  // frame dies; the 64-byte capacity goes back to the pool
  EXPECT_EQ(pool.pooled_payloads(), 1u);

  std::vector<std::uint8_t> buf = pool.acquire_payload();
  EXPECT_TRUE(buf.empty());
  EXPECT_GE(buf.capacity(), 64u);  // recycled, not freshly allocated
  EXPECT_EQ(pool.pooled_payloads(), 0u);
}

// Every message type that carries a payload byte vector, each protocol's
// data packet and NCast's coded packet.
TEST(FramePool, ReclaimsDataPayloadCapacity) {
  FramePool pool;
  expect_payload_reclaimed<DataMsg>(pool);
  expect_payload_reclaimed<DelugeDataMsg>(pool);
  expect_payload_reclaimed<MoapDataMsg>(pool);
  expect_payload_reclaimed<XnpDataMsg>(pool);
  expect_payload_reclaimed<NcastCodedMsg>(pool);
}

// The same through the channel: 2,001 data broadcasts from node 450 of a
// 30x30 grid (row 15, on the left edge), each heard by the 38 nodes of a
// 45 ft half-disc, share one frame node. A pool that freed its nodes
// instead would allocate one per broadcast.
TEST(FramePool, ChannelBroadcastsAllocateOneNode) {
  sim::Simulator sim(1);
  const Topology topo = Topology::grid(30, 30, 10.0);
  const DiskLinkModel links(topo, 45.0);
  obs::MetricsRegistry metrics(topo.size());
  Channel channel(sim, topo, links, metrics);
  std::vector<std::unique_ptr<energy::EnergyMeter>> meters;
  std::vector<std::unique_ptr<Radio>> radios;
  for (NodeId id = 0; id < topo.size(); ++id) {
    meters.push_back(std::make_unique<energy::EnergyMeter>());
    radios.push_back(std::make_unique<Radio>(id, sim.scheduler(), channel,
                                             *meters.back()));
    channel.register_radio(*radios.back());
    radios.back()->turn_on();
  }
  const Packet pkt = data_packet();
  for (int i = 0; i < 2001; ++i) {
    radios[450]->start_transmission(pkt);
    sim.run_until(sim.now() + sim::sec(1));
  }
  EXPECT_EQ(channel.transmissions(), 2001u);
  EXPECT_EQ(channel.deliveries(), 2001u * 38);
  EXPECT_LE(channel.frame_pool().node_allocations(), 1u);
}

TEST(FramePool, FrameMayOutliveThePool) {
  FramePtr survivor;
  {
    FramePool pool;
    survivor = pool.adopt(data_packet());
  }  // pool destroyed first; the frame's shared state keeps release safe
  ASSERT_TRUE(survivor);
  EXPECT_EQ(std::get<DataMsg>(survivor->payload).payload.size(), 22u);
  survivor.reset();  // must not touch freed pool memory (ASan-checked in CI)
}

// --- rendered traces: default path vs. the brute-force oracle ------------
//
// Every delivery, collision and trace line must match byte for byte on any
// seed: the cached channel consumes the RNG exactly as the oracle's O(N)
// scans do.

std::string traced_dissemination(std::uint64_t seed, bool neighbor_cache) {
  sim::Simulator sim(seed);
  Channel::Params cp;
  cp.neighbor_cache = neighbor_cache;
  node::Network network(
      sim, Topology::grid(3, 3, 10.0),
      [](const Topology& t) {
        return std::make_unique<DiskLinkModel>(t, 25.0);
      },
      cp);
  trace::EventLog log;
  network.stats().set_event_log(&log);
  core::MnpConfig cfg;
  auto image = std::make_shared<const core::ProgramImage>(
      1, cfg.packets_per_segment * cfg.payload_bytes);
  for (NodeId id = 0; id < network.size(); ++id) {
    network.node(id).set_application(
        id == 0 ? std::make_unique<core::MnpNode>(cfg, image)
                : std::make_unique<core::MnpNode>(cfg));
  }
  network.boot_all();
  sim.run_until_condition(sim::hours(1),
                          [&] { return network.stats().all_completed(); });
  // Render the *whole* log — the default 200-line cap would hide drift in
  // the bulk of the trace.
  return log.render(kBroadcastId, log.size() + 1);
}

TEST(ZeroCopyEquivalence, RenderedTracesBitIdentical) {
  for (const std::uint64_t seed : {3ull, 21ull, 777ull}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    EXPECT_EQ(traced_dissemination(seed, true),
              traced_dissemination(seed, false));
  }
}

}  // namespace
}  // namespace mnp::net
