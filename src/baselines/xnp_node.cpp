#include "baselines/xnp_node.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "node/stats.hpp"
#include "sim/audit.hpp"

namespace mnp::baselines {

using net::Packet;

// XnpDataMsg never carries the image size, so a receiver's layout holds
// only the packet size, which is all a flat offset needs.
XnpNode::XnpNode(XnpConfig config)
    : config_(config), layout_(0, 0, config.payload_bytes, 0) {}

XnpNode::XnpNode(XnpConfig config, std::shared_ptr<const core::ProgramImage> image)
    : config_(config), image_(std::move(image)) {
  assert(image_);
  assert(image_->payload_bytes() == config_.payload_bytes);
}

void XnpNode::start(node::Node& node) {
  node_ = &node;
  metrics_ = &node_->stats().metrics();
  m_data_sent_ =
      metrics_->register_counter("xnp.data_sent", obs::Unit::kCount, true);
  m_fix_requests_ = metrics_->register_counter("xnp.fix_requests_sent",
                                               obs::Unit::kCount, true);
  m_query_rounds_ = metrics_->register_counter("xnp.query_rounds",
                                               obs::Unit::kCount, true);
  node_->radio_on();
  if (image_) {
    layout_ = image_->layout();
    total_packets_ = layout_.total_packets();
    node_->stats().on_completed(node_->id(), node_->now());
    node_->stats().on_became_sender(node_->id(), node_->now());
    set_phase(Phase::kStream);
    pump_timer_ = node_->schedule(config_.pump_interval, [this] { pump_data(); });
  }
}

const char* XnpNode::phase_cname(Phase p) {
  switch (p) {
    case Phase::kIdle: return "Idle";
    case Phase::kStream: return "Stream";
    case Phase::kQuery: return "Query";
    case Phase::kDone: return "Done";
  }
  return "?";
}

void XnpNode::set_phase(Phase next) {
  if (next == phase_) return;
  if (auto* log = node_->stats().event_log()) {
    log->record_transition(node_->now(), node_->id(), phase_cname(phase_),
                           phase_cname(next));
  }
  phase_ = next;
}

void XnpNode::reset_for_reboot() {
  pump_timer_.cancel();
  query_timer_.cancel();
  fix_timer_.cancel();
  phase_ = Phase::kIdle;
  total_packets_ = 0;
  have_.clear();
  have_count_ = 0;
  saw_last_packet_ = false;
  cursor_ = 0;
  fix_queue_.clear();
  query_round_ = 0;
  quiet_rounds_ = 0;
  round_had_requests_ = false;
  done_ = false;
}

std::uint64_t XnpNode::audit_digest() const {
  std::uint64_t h = sim::kFnvOffset;
  h = sim::fnv1a(h, static_cast<std::uint64_t>(phase_));
  h = sim::fnv1a(h, total_packets_);
  h = sim::fnv1a(h, have_count_);
  h = sim::fnv1a(h, cursor_);
  h = sim::fnv1a(h, fix_queue_.size());
  h = sim::fnv1a(h, static_cast<std::uint64_t>(query_round_));
  h = sim::fnv1a(h, static_cast<std::uint64_t>(quiet_rounds_));
  h = sim::fnv1a(h, done_ ? 1u : 0u);
  return h;
}

bool XnpNode::has_complete_image() const {
  if (image_) return true;
  return total_packets_ > 0 && have_count_ == total_packets_;
}

std::size_t XnpNode::packets_received() const { return have_count_; }

// --------------------------------------------------------------------------
// base station
// --------------------------------------------------------------------------

void XnpNode::pump_data() {
  if (done_) return;
  while (node_->mac().queue_depth() < 2) {
    // Retransmissions first, then the linear first pass.
    std::uint16_t pkt_id;
    if (!fix_queue_.empty()) {
      pkt_id = fix_queue_.front();
      fix_queue_.erase(fix_queue_.begin());
    } else if (cursor_ < total_packets_) {
      pkt_id = static_cast<std::uint16_t>(cursor_++);
    } else {
      break;
    }
    Packet pkt;
    net::XnpDataMsg data;
    data.pkt_id = pkt_id;
    data.total_packets = static_cast<std::uint16_t>(total_packets_);
    data.payload = node_->frame_pool().acquire_payload();
    // A fix request past the image end gets an empty payload.
    if (const std::size_t len = layout_.payload_len(pkt_id); len > 0) {
      const auto first =
          image_->bytes().begin() + static_cast<long>(layout_.offset(pkt_id));
      data.payload.insert(data.payload.end(), first,
                          first + static_cast<long>(len));
    }
    pkt.payload = std::move(data);
    if (node_->send(std::move(pkt))) {
      metrics_->add(m_data_sent_, node_->id());
    }
  }
  set_phase(Phase::kStream);
  const bool pass_finished =
      cursor_ >= total_packets_ && fix_queue_.empty() && node_->mac().idle();
  if (pass_finished) {
    query_timer_ = node_->schedule(config_.query_gap, [this] { start_query_round(); });
    return;
  }
  pump_timer_ = node_->schedule(config_.pump_interval, [this] { pump_data(); });
}

void XnpNode::start_query_round() {
  if (done_) return;
  ++query_round_;
  if (query_round_ > config_.max_query_rounds) {
    done_ = true;
    set_phase(Phase::kDone);
    return;
  }
  if (round_had_requests_) {
    quiet_rounds_ = 0;
  } else if (query_round_ > 1) {
    ++quiet_rounds_;
    if (quiet_rounds_ >= config_.quiet_rounds_to_stop) {
      done_ = true;
      set_phase(Phase::kDone);
      return;
    }
  }
  round_had_requests_ = false;
  set_phase(Phase::kQuery);
  metrics_->add(m_query_rounds_, node_->id());
  Packet pkt;
  pkt.payload = net::XnpQueryMsg{static_cast<std::uint16_t>(total_packets_)};
  node_->send(std::move(pkt));
  // Collect fix requests for a window, then retransmit and query again.
  query_timer_ = node_->schedule(
      config_.fix_request_window + config_.query_gap, [this] {
        if (!fix_queue_.empty()) {
          pump_timer_ =
              node_->schedule(config_.pump_interval, [this] { pump_data(); });
        } else {
          start_query_round();
        }
      });
}

void XnpNode::handle_fix_request(const net::XnpFixRequestMsg& msg) {
  if (!image_ || done_) return;
  round_had_requests_ = true;
  if (std::find(fix_queue_.begin(), fix_queue_.end(), msg.pkt_id) ==
      fix_queue_.end()) {
    fix_queue_.push_back(msg.pkt_id);
  }
}

// --------------------------------------------------------------------------
// receiver
// --------------------------------------------------------------------------

void XnpNode::handle_data(const net::XnpDataMsg& msg) {
  if (image_) return;
  if (total_packets_ == 0 && msg.total_packets > 0) {
    total_packets_ = msg.total_packets;
    have_.assign(total_packets_, false);
    node_->meter().mark_first_advertisement(node_->now());
    set_phase(Phase::kStream);
  }
  if (msg.pkt_id >= have_.size() || have_[msg.pkt_id]) return;
  node_->eeprom().write(layout_.offset(msg.pkt_id), msg.payload);
  have_[msg.pkt_id] = true;
  ++have_count_;
  if (have_count_ == total_packets_) {
    node_->stats().on_completed(node_->id(), node_->now());
    node_->stats().on_parent_set(node_->id(), 0);  // XNP: base is the parent
    set_phase(Phase::kDone);
  }
}

void XnpNode::handle_query(const net::XnpQueryMsg& msg) {
  if (image_) return;
  if (total_packets_ == 0 && msg.total_packets > 0) {
    total_packets_ = msg.total_packets;
    have_.assign(total_packets_, false);
    node_->meter().mark_first_advertisement(node_->now());
    set_phase(Phase::kStream);
  }
  if (total_packets_ == 0) return;
  if (have_count_ == total_packets_) return;
  // Answer with the first few missing packets after a random delay; the
  // cap keeps the fix channel from imploding when many nodes have gaps.
  const sim::Time delay = node_->rng().uniform_int(0, config_.fix_request_window);
  fix_timer_ = node_->schedule(delay, [this] {
    std::size_t sent = 0;
    for (std::size_t i = 0;
         i < have_.size() && sent < config_.fix_requests_per_query; ++i) {
      if (!have_[i]) {
        Packet pkt;
        pkt.payload = net::XnpFixRequestMsg{static_cast<std::uint16_t>(i)};
        if (node_->send(std::move(pkt))) {
          metrics_->add(m_fix_requests_, node_->id());
        }
        ++sent;
      }
    }
  });
}

void XnpNode::on_packet(const Packet& pkt) {
  if (const auto* data = pkt.as<net::XnpDataMsg>()) {
    handle_data(*data);
  } else if (const auto* query = pkt.as<net::XnpQueryMsg>()) {
    handle_query(*query);
  } else if (const auto* fix = pkt.as<net::XnpFixRequestMsg>()) {
    handle_fix_request(*fix);
  }
}

}  // namespace mnp::baselines
