// StatsCollector unit tests.
#include <gtest/gtest.h>

#include "node/stats.hpp"

namespace mnp::node {
namespace {

net::Packet make_packet(net::Payload payload) {
  net::Packet pkt;
  pkt.payload = std::move(payload);
  return pkt;
}

TEST(StatsCollector, CountsPerTypeAndTimeline) {
  obs::MetricsRegistry metrics(3);
  StatsCollector stats(metrics);
  stats.on_transmit(0, make_packet(net::AdvertisementMsg{}), sim::sec(10));
  stats.on_transmit(0, make_packet(net::DataMsg{}), sim::sec(70));
  stats.on_transmit(1, make_packet(net::DataMsg{}), sim::sec(80));
  stats.on_deliver(0, 1, make_packet(net::DataMsg{}), sim::sec(70));

  EXPECT_EQ(stats.node(0).sent_of(net::PacketType::kAdvertisement), 1u);
  EXPECT_EQ(stats.node(0).sent_of(net::PacketType::kData), 1u);
  EXPECT_EQ(stats.node(0).total_sent(), 2u);
  EXPECT_EQ(stats.node(1).received_of(net::PacketType::kData), 1u);
  EXPECT_EQ(stats.node(1).total_received(), 1u);

  const auto& timeline = stats.timeline();
  ASSERT_EQ(timeline.size(), 2u);  // minute 0 and minute 1
  EXPECT_EQ(timeline.at(0)[static_cast<std::size_t>(net::MsgClass::kAdvertisement)], 1u);
  EXPECT_EQ(timeline.at(1)[static_cast<std::size_t>(net::MsgClass::kData)], 2u);
}

TEST(StatsCollector, CompletionBookkeeping) {
  obs::MetricsRegistry metrics(2);
  StatsCollector stats(metrics);
  EXPECT_EQ(stats.completed_count(), 0u);
  EXPECT_FALSE(stats.all_completed());
  EXPECT_EQ(stats.completion_time(), sim::kNever);

  stats.on_completed(0, sim::sec(5));
  stats.on_completed(0, sim::sec(50));  // duplicate: ignored
  EXPECT_EQ(stats.completed_count(), 1u);
  EXPECT_EQ(stats.node(0).completion_time, sim::sec(5));

  stats.on_completed(1, sim::sec(9));
  EXPECT_TRUE(stats.all_completed());
  EXPECT_EQ(stats.completion_time(), sim::sec(9));
  // The count is the node.completions cells, not a copy of them.
  EXPECT_EQ(metrics.counter_total("node.completions"), 2u);
  EXPECT_EQ(metrics.counter_node("node.completions", 0), 1u);
}

TEST(StatsCollector, SegmentCompletionCountsEachUnitOnceInOrder) {
  obs::MetricsRegistry metrics(2);
  StatsCollector stats(metrics);
  const auto count = [&metrics](net::NodeId id) {
    return metrics.counter_node("node.segments_completed", id);
  };
  stats.on_segment_completed(0, 1, sim::sec(10));
  stats.on_segment_completed(0, 1, sim::sec(11));  // duplicate: ignored
  stats.on_segment_completed(0, 2, sim::sec(20));
  stats.on_segment_completed(0, 0, sim::sec(21));  // no such unit
  EXPECT_EQ(count(0), 2u);
  EXPECT_EQ(count(1), 0u);
  // A reboot that lost progress completes units 1 and 2 again; only the
  // unit past them counts.
  stats.on_segment_completed(0, 1, sim::sec(60));
  stats.on_segment_completed(0, 2, sim::sec(70));
  stats.on_segment_completed(0, 3, sim::sec(80));
  EXPECT_EQ(count(0), 3u);
  stats.on_segment_completed(1, 1, sim::sec(90));
  EXPECT_EQ(count(1), 1u);
  EXPECT_EQ(metrics.counter_total("node.segments_completed"), 4u);
}

TEST(StatsCollector, SenderOrderRecordsFirstForwardOnly) {
  obs::MetricsRegistry metrics(4);
  StatsCollector stats(metrics);
  stats.on_became_sender(2, sim::sec(1));
  stats.on_became_sender(0, sim::sec(2));
  stats.on_became_sender(2, sim::sec(3));  // repeat: ignored
  ASSERT_EQ(stats.sender_order().size(), 2u);
  EXPECT_EQ(stats.sender_order()[0], 2);
  EXPECT_EQ(stats.sender_order()[1], 0);
  EXPECT_EQ(stats.node(2).became_sender, sim::sec(1));
}

TEST(StatsCollector, ParentAndCollisions) {
  obs::MetricsRegistry metrics(2);
  StatsCollector stats(metrics);
  stats.on_parent_set(1, 0);
  EXPECT_EQ(stats.node(1).parent, 0);
  // A node's collisions are its cell of the channel's chan.collisions.
  const auto collisions =
      metrics.register_counter("chan.collisions", obs::Unit::kCount, true);
  metrics.add(collisions, net::NodeId{1});
  metrics.add(collisions, net::NodeId{1});
  EXPECT_EQ(stats.node(1).collisions_suffered, 2u);
  EXPECT_EQ(stats.node(0).collisions_suffered, 0u);
}

TEST(StatsCollector, OutOfRangeIdsAreIgnored) {
  obs::MetricsRegistry metrics(1);
  StatsCollector stats(metrics);
  stats.on_completed(7, sim::sec(1));
  stats.on_parent_set(7, 0);
  stats.on_became_sender(7, sim::sec(1));
  EXPECT_EQ(stats.completed_count(), 0u);
  EXPECT_TRUE(stats.sender_order().empty());
}

}  // namespace
}  // namespace mnp::node
