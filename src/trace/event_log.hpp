// Protocol event log: a bounded, queryable record of what every node did
// and when — state transitions, radio flips, traffic. Used for debugging
// protocol behaviour and for rendering per-node timelines (the kind of
// trace the paper's Figs. 5-7 were distilled from).
//
// Storage is a fixed-capacity ring of flat records with the detail text
// inline (truncated to kInlineDetail chars) — recording never allocates
// once the ring has grown to capacity, no matter how many millions of
// events a run produces. The query/render API is unchanged: it
// materializes std::string details on the way out, off the hot path.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace mnp::trace {

enum class EventKind : std::uint8_t {
  kStateChange,   // detail = "Idle->Download" etc.
  kRadioOn,
  kRadioOff,
  kPacketSent,    // detail = packet type name
  kPacketReceived,
  kSegmentCompleted,  // detail = segment id
  kImageCompleted,
  kNote,          // free-form protocol notes
  kScenario,      // injected world mutation: "kill 5", "partition on", ...
                  // node = the affected node, or kBroadcastId for global
                  // events; details ending " on"/" off" delimit windows.
};

const char* to_string(EventKind kind);

/// Materialized view of one logged event (what queries return).
struct Event {
  sim::Time time = 0;
  net::NodeId node = net::kNoNode;
  EventKind kind = EventKind::kNote;
  std::string detail;
};

class EventLog {
 public:
  /// Longest detail stored verbatim; anything longer is truncated. Sized
  /// for the repo's longest real detail ("Download->Advertise" and kin).
  static constexpr std::size_t kInlineDetail = 30;

  /// Keeps at most `capacity` events; older ones are evicted FIFO.
  explicit EventLog(std::size_t capacity = 100000) : capacity_(capacity) {}

  void record(sim::Time time, net::NodeId node, EventKind kind);
  /// `detail` is copied into inline storage — no allocation; string
  /// literals and std::strings both bind here.
  void record(sim::Time time, net::NodeId node, EventKind kind,
              std::string_view detail);
  /// Small-integer detail (e.g. a segment id), formatted inline.
  void record(sim::Time time, net::NodeId node, EventKind kind,
              std::uint64_t value);
  /// A kStateChange whose detail is "from->to", written inline (and
  /// truncated) like any other detail.
  void record_transition(sim::Time time, net::NodeId node,
                         std::string_view from, std::string_view to);

  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t total_recorded() const { return total_; }
  std::uint64_t dropped() const { return total_ - ring_.size(); }
  void clear();

  /// Events matching a predicate (in recording order).
  std::vector<Event> query(const std::function<bool(const Event&)>& pred) const;
  std::vector<Event> for_node(net::NodeId node) const;
  std::vector<Event> of_kind(EventKind kind) const;
  std::map<EventKind, std::uint64_t> counts_by_kind() const;

  /// "12.3s  node 7  StateChange  Advertise->Forward" lines for one node
  /// (all nodes if node == net::kBroadcastId), capped at `max_lines`.
  std::string render(net::NodeId node = net::kBroadcastId,
                     std::size_t max_lines = 200) const;

 private:
  struct StoredEvent {
    sim::Time time = 0;
    net::NodeId node = net::kNoNode;
    EventKind kind = EventKind::kNote;
    std::uint8_t detail_len = 0;
    char detail[kInlineDetail];
  };

  /// i-th oldest stored event (0 = oldest surviving).
  const StoredEvent& at(std::size_t i) const {
    return ring_[(head_ + i) % ring_.size()];
  }
  StoredEvent& push_slot();
  static Event materialize(const StoredEvent& s) {
    return Event{s.time, s.node, s.kind, std::string(s.detail, s.detail_len)};
  }

  std::size_t capacity_;
  // Grows by push_back until it reaches capacity_, then becomes a ring
  // with head_ marking the oldest entry — steady state never allocates.
  std::vector<StoredEvent> ring_;
  std::size_t head_ = 0;
  std::uint64_t total_ = 0;
};

}  // namespace mnp::trace
