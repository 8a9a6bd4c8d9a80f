#include "trace/event_log.hpp"

#include <algorithm>
#include <charconv>
#include <initializer_list>
#include <sstream>

namespace mnp::trace {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kStateChange: return "StateChange";
    case EventKind::kRadioOn: return "RadioOn";
    case EventKind::kRadioOff: return "RadioOff";
    case EventKind::kPacketSent: return "PacketSent";
    case EventKind::kPacketReceived: return "PacketReceived";
    case EventKind::kSegmentCompleted: return "SegmentCompleted";
    case EventKind::kImageCompleted: return "ImageCompleted";
    case EventKind::kNote: return "Note";
    case EventKind::kScenario: return "Scenario";
  }
  return "?";
}

EventLog::StoredEvent& EventLog::push_slot() {
  if (ring_.size() < capacity_) {
    return ring_.emplace_back();
  }
  StoredEvent& slot = ring_[head_];  // overwrite the oldest
  head_ = (head_ + 1) % capacity_;
  return slot;
}

void EventLog::record(sim::Time time, net::NodeId node, EventKind kind) {
  ++total_;
  if (capacity_ == 0) return;
  StoredEvent& s = push_slot();
  s.time = time;
  s.node = node;
  s.kind = kind;
  s.detail_len = 0;
}

void EventLog::record(sim::Time time, net::NodeId node, EventKind kind,
                      std::string_view detail) {
  ++total_;
  if (capacity_ == 0) return;
  StoredEvent& s = push_slot();
  s.time = time;
  s.node = node;
  s.kind = kind;
  const std::size_t len = std::min(detail.size(), kInlineDetail);
  s.detail_len = static_cast<std::uint8_t>(len);
  std::copy_n(detail.data(), len, s.detail);
}

void EventLog::record(sim::Time time, net::NodeId node, EventKind kind,
                      std::uint64_t value) {
  char buf[20];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  record(time, node, kind,
         std::string_view(buf, static_cast<std::size_t>(end - buf)));
}

void EventLog::record_transition(sim::Time time, net::NodeId node,
                                 std::string_view from, std::string_view to) {
  char buf[kInlineDetail];
  std::size_t len = 0;
  for (const std::string_view part : {from, std::string_view("->"), to}) {
    const std::size_t n = std::min(part.size(), kInlineDetail - len);
    std::copy_n(part.data(), n, buf + len);
    len += n;
  }
  record(time, node, EventKind::kStateChange, std::string_view(buf, len));
}

void EventLog::clear() {
  ring_.clear();
  head_ = 0;
  total_ = 0;
}

std::vector<Event> EventLog::query(
    const std::function<bool(const Event&)>& pred) const {
  std::vector<Event> out;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    Event e = materialize(at(i));
    if (pred(e)) out.push_back(std::move(e));
  }
  return out;
}

std::vector<Event> EventLog::for_node(net::NodeId node) const {
  return query([node](const Event& e) { return e.node == node; });
}

std::vector<Event> EventLog::of_kind(EventKind kind) const {
  return query([kind](const Event& e) { return e.kind == kind; });
}

std::map<EventKind, std::uint64_t> EventLog::counts_by_kind() const {
  std::map<EventKind, std::uint64_t> counts;
  for (std::size_t i = 0; i < ring_.size(); ++i) ++counts[at(i).kind];
  return counts;
}

std::string EventLog::render(net::NodeId node, std::size_t max_lines) const {
  std::ostringstream os;
  std::size_t lines = 0;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const StoredEvent& e = at(i);
    if (node != net::kBroadcastId && e.node != node) continue;
    if (++lines > max_lines) {
      os << "... (" << size() << " events total)\n";
      break;
    }
    os << sim::format_time(e.time) << "  node " << e.node << "  "
       << to_string(e.kind);
    if (e.detail_len > 0) {
      os << "  ";
      os.write(e.detail, e.detail_len);
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace mnp::trace
