// Run-wide statistics: everything the paper's evaluation section measures.
//
// The collector observes the channel (per-type tx/rx counts, per-minute
// message timeline — Figs. 11 and 12) and receives protocol callbacks
// (completion times, parents, sender order — Figs. 5-7 and 13; active
// radio time comes from the per-node EnergyMeter at read-out). Counts
// that have a registry cell live there only: completions are the
// node.completions cells, and a node's collisions are the channel's
// chan.collisions cell.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "net/channel.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"
#include "sim/time.hpp"
#include "trace/event_log.hpp"

namespace mnp::node {

struct NodeStats {
  // Indexed by PacketType.
  std::array<std::uint64_t, net::kPacketTypeCount> sent{};
  std::array<std::uint64_t, net::kPacketTypeCount> received{};
  std::uint64_t collisions_suffered = 0;

  sim::Time completion_time = sim::kNever;  // full image verified
  sim::Time became_sender = sim::kNever;    // first entered Forward
  int parent = -1;                          // last parent set (-1: none)

  std::uint64_t total_sent() const;
  std::uint64_t total_received() const;
  std::uint64_t sent_of(net::PacketType t) const;
  std::uint64_t received_of(net::PacketType t) const;
};

class StatsCollector final : public net::ChannelObserver {
 public:
  /// Tracks `metrics.node_count()` nodes and registers the node.* counters
  /// in `metrics`, which must outlive the collector.
  explicit StatsCollector(obs::MetricsRegistry& metrics);
  /// The channel holds its address, and it points into its own timeline.
  StatsCollector(const StatsCollector&) = delete;
  StatsCollector& operator=(const StatsCollector&) = delete;

  // --- ChannelObserver -----------------------------------------------------
  void on_transmit(net::NodeId src, const net::Packet& pkt, sim::Time now) override;
  void on_deliver(net::NodeId src, net::NodeId dst, const net::Packet& pkt,
                  sim::Time now) override;

  // --- protocol hooks ------------------------------------------------------
  void on_completed(net::NodeId id, sim::Time now);
  /// Unit `seg` (a segment, page or generation) completed. Units complete
  /// strictly in order, so only a unit past the node's
  /// node.segments_completed count is new; a repeat (after a reboot that
  /// lost progress) is traced but not counted again.
  void on_segment_completed(net::NodeId id, std::uint16_t seg, sim::Time now);
  void on_parent_set(net::NodeId id, net::NodeId parent);
  void on_became_sender(net::NodeId id, sim::Time now);

  /// Optional protocol event log; when attached, traffic and completion
  /// events are recorded (protocols add their own state transitions).
  /// Receive events carry the sender in the detail ("Data<5") so the trace
  /// exporter can draw flow arrows.
  void set_event_log(trace::EventLog* log) { event_log_ = log; }
  trace::EventLog* event_log() const { return event_log_; }

  /// The network's registry: protocols reach it here (via Node::stats())
  /// to register their own handles.
  obs::MetricsRegistry& metrics() { return metrics_; }

  // --- queries ---------------------------------------------------------
  /// Snapshot of one node; collisions_suffered is its chan.collisions cell.
  NodeStats node(net::NodeId id) const;
  std::size_t node_count() const { return nodes_.size(); }

  /// Number of nodes holding the complete image.
  std::size_t completed_count() const {
    return static_cast<std::size_t>(metrics_.total(m_completions_));
  }
  bool all_completed() const { return completed_count() == nodes_.size(); }
  /// Time the last node completed (kNever until all_completed()).
  sim::Time completion_time() const;

  /// Nodes in the order they first became senders (paper Figs. 5-7 mark
  /// this order on the grid).
  const std::vector<net::NodeId>& sender_order() const { return sender_order_; }

  /// Per-minute transmitted-message counts by class (Fig. 12).
  /// timeline()[minute][net::MsgClass]; trailing minutes may be absent.
  const std::map<std::int64_t, std::array<std::uint64_t, 4>>& timeline() const {
    return timeline_;
  }

 private:
  trace::EventLog* event_log_ = nullptr;
  obs::MetricsRegistry& metrics_;
  obs::MetricsRegistry::Counter m_completions_;
  obs::MetricsRegistry::Counter m_segments_;
  obs::MetricsRegistry::Counter m_collisions_;
  std::vector<NodeStats> nodes_;
  std::vector<net::NodeId> sender_order_;
  std::map<std::int64_t, std::array<std::uint64_t, 4>> timeline_;
  /// The row on_transmit counted into last, so a transmission in the same
  /// minute skips the map lookup.
  std::array<std::uint64_t, 4>* current_row_ = nullptr;
  std::int64_t current_minute_ = 0;
};

}  // namespace mnp::node
