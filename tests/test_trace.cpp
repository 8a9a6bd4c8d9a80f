// Event log tests: recording, bounds, queries, rendering, and integration
// with a live MNP dissemination.
#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "mnp/mnp_node.hpp"
#include "node/network.hpp"
#include "sim/simulator.hpp"
#include "trace/event_log.hpp"

namespace mnp::trace {
namespace {

TEST(EventLog, RecordsInOrder) {
  EventLog log;
  log.record(sim::sec(1), 3, EventKind::kRadioOn);
  log.record(sim::sec(2), 3, EventKind::kStateChange, "Idle->Download");
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.total_recorded(), 2u);
  const auto events = log.for_node(3);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, EventKind::kRadioOn);
  EXPECT_EQ(events[1].detail, "Idle->Download");
}

TEST(EventLog, CapacityEvictsOldest) {
  EventLog log(4);
  for (int i = 0; i < 10; ++i) {
    log.record(sim::sec(i), 0, EventKind::kNote, std::to_string(i));
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.total_recorded(), 10u);
  EXPECT_EQ(log.dropped(), 6u);
  const auto events = log.for_node(0);
  EXPECT_EQ(events.front().detail, "6");  // 0..5 evicted
  EXPECT_EQ(events.back().detail, "9");
}

TEST(EventLog, WrapKeepsRecordingOrderAcrossTheSeam) {
  // Ring head in mid-buffer: events must still come back oldest-first.
  EventLog log(3);
  for (int i = 0; i < 7; ++i) {  // head ends up at slot 1 of 3
    log.record(sim::sec(i), 0, EventKind::kNote, std::to_string(i));
  }
  const auto events = log.for_node(0);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].detail, "4");
  EXPECT_EQ(events[1].detail, "5");
  EXPECT_EQ(events[2].detail, "6");
  EXPECT_EQ(log.dropped(), 4u);
}

TEST(EventLog, LongDetailIsTruncatedNotDropped) {
  EventLog log;
  const std::string lorem(100, 'x');
  log.record(0, 0, EventKind::kNote, lorem);
  const auto events = log.for_node(0);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].detail, std::string(EventLog::kInlineDetail, 'x'));
}

TEST(EventLog, NumericDetailFormatsInline) {
  EventLog log;
  log.record(0, 0, EventKind::kSegmentCompleted, std::uint64_t{42});
  log.record(0, 0, EventKind::kSegmentCompleted,
             std::numeric_limits<std::uint64_t>::max());
  const auto events = log.for_node(0);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].detail, "42");
  EXPECT_EQ(events[1].detail, "18446744073709551615");
}

TEST(EventLog, TransitionDetailIsFromArrowTo) {
  EventLog log;
  log.record_transition(5, 3, "Download", "Advertise");
  // Three parts that overflow the inline detail: truncated like any other.
  log.record_transition(6, 3, std::string(20, 'a'), std::string(20, 'b'));
  const auto events = log.for_node(3);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].time, 5);
  EXPECT_EQ(events[0].kind, EventKind::kStateChange);
  EXPECT_EQ(events[0].detail, "Download->Advertise");
  EXPECT_EQ(events[1].detail,
            std::string(20, 'a') + "->" +
                std::string(EventLog::kInlineDetail - 22, 'b'));
}

TEST(EventLog, ZeroCapacityDiscardsEverything) {
  EventLog log(0);
  log.record(0, 0, EventKind::kNote);
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.total_recorded(), 1u);
}

TEST(EventLog, QueriesFilter) {
  EventLog log;
  log.record(0, 1, EventKind::kPacketSent, "Data");
  log.record(0, 2, EventKind::kPacketSent, "Advertisement");
  log.record(0, 1, EventKind::kImageCompleted);
  EXPECT_EQ(log.for_node(1).size(), 2u);
  EXPECT_EQ(log.of_kind(EventKind::kPacketSent).size(), 2u);
  const auto counts = log.counts_by_kind();
  EXPECT_EQ(counts.at(EventKind::kPacketSent), 2u);
  EXPECT_EQ(counts.at(EventKind::kImageCompleted), 1u);
}

TEST(EventLog, RenderFormatsLines) {
  EventLog log;
  log.record(sim::sec(90), 7, EventKind::kStateChange, "Advertise->Forward");
  const std::string out = log.render();
  EXPECT_NE(out.find("1m30.0s"), std::string::npos);
  EXPECT_NE(out.find("node 7"), std::string::npos);
  EXPECT_NE(out.find("Advertise->Forward"), std::string::npos);
}

TEST(EventLog, RenderCapsLines) {
  EventLog log;
  for (int i = 0; i < 50; ++i) log.record(0, 0, EventKind::kNote);
  const std::string out = log.render(net::kBroadcastId, 10);
  EXPECT_NE(out.find("..."), std::string::npos);
}

TEST(EventLog, ClearResets) {
  EventLog log;
  log.record(0, 0, EventKind::kNote);
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.total_recorded(), 0u);
}

TEST(EventLogIntegration, TracesALiveDissemination) {
  sim::Simulator sim(5);
  node::Network network(
      sim, net::Topology::grid(3, 3, 10.0), [](const net::Topology& t) {
        return std::make_unique<net::DiskLinkModel>(t, 25.0);
      });
  EventLog log;
  network.stats().set_event_log(&log);
  core::MnpConfig cfg;
  auto image = std::make_shared<const core::ProgramImage>(
      1, cfg.packets_per_segment * cfg.payload_bytes);
  for (net::NodeId id = 0; id < network.size(); ++id) {
    network.node(id).set_application(
        id == 0 ? std::make_unique<core::MnpNode>(cfg, image)
                : std::make_unique<core::MnpNode>(cfg));
  }
  network.boot_all();
  ASSERT_TRUE(sim.run_until_condition(
      sim::hours(1), [&] { return network.stats().all_completed(); }));

  // The protocol's life shows up in the log: state changes, traffic, and
  // one ImageCompleted per receiver.
  EXPECT_EQ(log.of_kind(EventKind::kImageCompleted).size(), 9u);
  EXPECT_GT(log.of_kind(EventKind::kStateChange).size(), 8u);
  EXPECT_GT(log.of_kind(EventKind::kPacketSent).size(), 100u);
  // Every receiver passed through Download at least once.
  for (net::NodeId id = 1; id < 9; ++id) {
    bool downloaded = false;
    for (const auto& e : log.for_node(id)) {
      if (e.kind == EventKind::kStateChange &&
          e.detail.find("->Download") != std::string::npos) {
        downloaded = true;
        break;
      }
    }
    EXPECT_TRUE(downloaded) << "node " << id;
  }
}

}  // namespace
}  // namespace mnp::trace
