#include "baselines/deluge_node.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "boot/progress_journal.hpp"
#include "node/stats.hpp"
#include "sim/audit.hpp"

namespace mnp::baselines {

using net::Packet;

DelugeNode::DelugeNode(DelugeConfig config) : config_(config) {}

DelugeNode::DelugeNode(DelugeConfig config,
                       std::shared_ptr<const core::ProgramImage> image)
    : config_(config), image_(std::move(image)) {
  assert(image_);
  assert(image_->packets_per_segment() == config_.packets_per_page);
  assert(image_->payload_bytes() == config_.payload_bytes);
}

void DelugeNode::start(node::Node& node) {
  node_ = &node;
  metrics_ = &node_->stats().metrics();
  m_rounds_ =
      metrics_->register_counter("deluge.rounds", obs::Unit::kCount, true);
  m_summaries_ = metrics_->register_counter("deluge.summaries_sent",
                                            obs::Unit::kCount, true);
  m_requests_ = metrics_->register_counter("deluge.requests_sent",
                                           obs::Unit::kCount, true);
  node_->radio_on();  // Deluge keeps the radio on for the whole run
  if (image_) {
    version_ = image_->id();
    layout_ = image_->layout();
    complete_pages_ = layout_.units();
    node_->stats().on_completed(node_->id(), node_->now());
  } else if (recover_journal() && has_complete_image()) {
    node_->stats().on_completed(node_->id(), node_->now());
  }
  start_round(/*reset_tau=*/true);
}

bool DelugeNode::recover_journal() {
  if (!config_.journal_progress) return false;
  const auto rec = boot::ProgressJournal(node_->eeprom()).recover();
  if (!rec) return false;
  version_ = rec->program_id;
  layout_ = core::ImageLayout::of_bytes(
      rec->program_bytes, config_.packets_per_page, config_.payload_bytes);
  complete_pages_ = rec->prefix;
  return complete_pages_ > 0;
}

void DelugeNode::reset_for_reboot() {
  round_timer_.cancel();
  round_end_timer_.cancel();
  request_timer_.cancel();
  rx_idle_timer_.cancel();
  tx_timer_.cancel();
  if (state_ != State::kMaintain) {
    state_ = State::kMaintain;
  }
  version_ = 0;
  layout_ = core::ImageLayout{};
  complete_pages_ = 0;
  tau_ = 0;
  heard_consistent_ = 0;
  missing_ = util::Bitmap{};
  missing_for_page_ = 0;
  rx_source_ = net::kNoNode;
  request_rounds_ = 0;
  tx_page_ = 0;
  tx_vector_ = util::Bitmap{};
  tx_cursor_ = 0;
}

std::uint64_t DelugeNode::audit_digest() const {
  std::uint64_t h = sim::kFnvOffset;
  h = sim::fnv1a(h, static_cast<std::uint64_t>(state_));
  h = sim::fnv1a(h, version_);
  h = sim::fnv1a(h, layout_.units());
  h = sim::fnv1a(h, complete_pages_);
  h = sim::fnv1a(h, static_cast<std::uint64_t>(tau_));
  h = sim::fnv1a(h, static_cast<std::uint64_t>(heard_consistent_));
  h = sim::fnv1a(h, missing_for_page_);
  h = sim::fnv1a(h, rx_source_);
  h = sim::fnv1a(h, static_cast<std::uint64_t>(request_rounds_));
  h = sim::fnv1a(h, tx_page_);
  h = sim::fnv1a(h, tx_cursor_);
  return h;
}

// --------------------------------------------------------------------------
// program geometry
// --------------------------------------------------------------------------

void DelugeNode::learn_program(std::uint16_t version, std::uint16_t pages,
                               std::uint32_t bytes) {
  if (layout_.units() == 0 && pages > 0) {
    version_ = version;
    layout_ = core::ImageLayout(bytes, config_.packets_per_page,
                                config_.payload_bytes, pages);
    node_->meter().mark_first_advertisement(node_->now());
  }
}

void DelugeNode::ensure_missing(std::uint16_t page) {
  if (missing_for_page_ == page) return;
  missing_ = util::Bitmap::all_set(layout_.packets_in(page));
  missing_for_page_ = page;
}

// --------------------------------------------------------------------------
// MAINTAIN (Trickle)
// --------------------------------------------------------------------------

void DelugeNode::start_round(bool reset_tau) {
  round_timer_.cancel();
  round_end_timer_.cancel();
  if (reset_tau || tau_ == 0) {
    tau_ = config_.tau_low;
  } else {
    tau_ = std::min(tau_ * 2, config_.tau_high);
  }
  heard_consistent_ = 0;
  metrics_->add(m_rounds_, node_->id());
  const sim::Time t = node_->rng().uniform_int(tau_ / 2, tau_);
  round_timer_ = node_->schedule(t, [this] { round_fired(); });
  round_end_timer_ = node_->schedule(tau_, [this] {
    if (state_ == State::kMaintain) start_round(/*reset_tau=*/false);
  });
}

void DelugeNode::round_fired() {
  if (state_ != State::kMaintain) return;
  if (heard_consistent_ >= config_.suppression_k) return;  // suppressed
  Packet pkt;
  net::DelugeSummaryMsg summary;
  summary.version = version_;
  summary.total_pages = layout_.units();
  summary.complete_pages = complete_pages_;
  summary.program_bytes = layout_.bytes();
  pkt.payload = summary;
  if (node_->send(std::move(pkt))) {
    metrics_->add(m_summaries_, node_->id());
  }
}

void DelugeNode::handle_summary(const Packet& pkt,
                                const net::DelugeSummaryMsg& msg) {
  learn_program(msg.version, msg.total_pages, msg.program_bytes);
  if (msg.complete_pages == complete_pages_) {
    ++heard_consistent_;
    return;
  }
  // Inconsistency: someone is ahead or behind; Trickle resets.
  if (state_ == State::kMaintain) {
    if (msg.complete_pages > complete_pages_) {
      begin_rx(pkt.src);
    } else {
      // They are behind: reset tau so our summary reaches them soon.
      start_round(/*reset_tau=*/true);
    }
  }
}

// --------------------------------------------------------------------------
// RX
// --------------------------------------------------------------------------

void DelugeNode::begin_rx(net::NodeId source) {
  state_ = State::kRx;
  round_timer_.cancel();
  round_end_timer_.cancel();
  rx_source_ = source;
  request_rounds_ = 0;
  ensure_missing(static_cast<std::uint16_t>(complete_pages_ + 1));
  const sim::Time delay = node_->rng().uniform_int(0, config_.request_delay_max);
  request_timer_ = node_->schedule(delay, [this] { send_request(); });
}

void DelugeNode::send_request() {
  if (state_ != State::kRx) return;
  if (request_rounds_ >= config_.max_request_rounds) {
    finish_rx(/*success=*/false);
    return;
  }
  ++request_rounds_;
  Packet pkt;
  net::DelugeRequestMsg req;
  req.dest = rx_source_;
  req.page = static_cast<std::uint16_t>(complete_pages_ + 1);
  req.missing = missing_;
  pkt.payload = req;
  if (node_->send(std::move(pkt))) {
    metrics_->add(m_requests_, node_->id());
  }
  rx_idle_timer_.cancel();
  rx_idle_timer_ =
      node_->schedule(config_.rx_idle_timeout, [this] { rx_timeout(); });
}

void DelugeNode::rx_timeout() {
  if (state_ != State::kRx) return;
  send_request();  // retry (bounded by max_request_rounds)
}

void DelugeNode::finish_rx(bool success) {
  request_timer_.cancel();
  rx_idle_timer_.cancel();
  rx_source_ = net::kNoNode;
  state_ = State::kMaintain;
  start_round(/*reset_tau=*/!success ? false : true);
}

// --------------------------------------------------------------------------
// TX
// --------------------------------------------------------------------------

void DelugeNode::handle_request(const Packet& pkt,
                                const net::DelugeRequestMsg& msg) {
  (void)pkt;
  if (msg.page > complete_pages_) return;  // we don't have it
  if (state_ == State::kTx) {
    if (msg.page == tx_page_) {
      // Merge the not-yet-passed part of the request.
      for (std::size_t i = tx_cursor_; i < tx_vector_.size(); ++i) {
        if (msg.missing.test(i)) tx_vector_.set(i);
      }
    }
    return;
  }
  if (state_ == State::kRx && msg.dest != node_->id()) return;
  if (msg.dest != node_->id()) return;
  begin_tx(msg.page);
  for (std::size_t i = 0; i < tx_vector_.size(); ++i) {
    if (msg.missing.test(i)) tx_vector_.set(i);
  }
}

void DelugeNode::begin_tx(std::uint16_t page) {
  request_timer_.cancel();
  rx_idle_timer_.cancel();
  round_timer_.cancel();
  round_end_timer_.cancel();
  state_ = State::kTx;
  node_->stats().on_became_sender(node_->id(), node_->now());
  tx_page_ = page;
  tx_vector_ = util::Bitmap(layout_.packets_in(page));
  tx_cursor_ = 0;
  tx_timer_ = node_->schedule(config_.tx_pump_interval, [this] { pump_tx(); });
}

void DelugeNode::pump_tx() {
  if (state_ != State::kTx) return;
  while (node_->mac().queue_depth() < 2) {
    const std::size_t next = tx_vector_.find_first_set(tx_cursor_);
    if (next >= tx_vector_.size()) break;
    Packet pkt;
    net::DelugeDataMsg data;
    data.version = version_;
    data.page = tx_page_;
    data.pkt_id = static_cast<std::uint8_t>(next);
    data.payload = node_->frame_pool().acquire_payload();
    const auto pkt_id = static_cast<std::uint16_t>(next);
    if (image_) {
      image_->packet_payload_into(tx_page_, pkt_id, data.payload);
    } else {
      node_->eeprom().read_into(layout_.offset(tx_page_, pkt_id),
                                layout_.payload_len(tx_page_, pkt_id),
                                data.payload);
    }
    pkt.payload = std::move(data);
    node_->send(std::move(pkt));
    tx_cursor_ = static_cast<std::uint16_t>(next + 1);
  }
  const bool drained =
      tx_vector_.find_first_set(tx_cursor_) >= tx_vector_.size() &&
      node_->mac().idle();
  if (drained) {
    state_ = State::kMaintain;
    start_round(/*reset_tau=*/true);
    return;
  }
  tx_timer_ = node_->schedule(config_.tx_pump_interval, [this] { pump_tx(); });
}

// --------------------------------------------------------------------------
// data reception (any state: Deluge receivers hoard every useful packet)
// --------------------------------------------------------------------------

void DelugeNode::store_data(const net::DelugeDataMsg& msg) {
  ensure_missing(msg.page);
  if (!missing_.test(msg.pkt_id)) return;
  node_->eeprom().write(layout_.offset(msg.page, msg.pkt_id), msg.payload);
  missing_.clear(msg.pkt_id);
}

void DelugeNode::page_completed() {
  ++complete_pages_;
  if (config_.journal_progress) {
    boot::ProgressJournal(node_->eeprom())
        .append(version_, layout_.bytes(), complete_pages_);
  }
  node_->stats().on_segment_completed(node_->id(), complete_pages_, node_->now());
  if (has_complete_image()) {
    node_->stats().on_completed(node_->id(), node_->now());
  }
  if (state_ == State::kRx) {
    node_->stats().on_parent_set(node_->id(), rx_source_);
    finish_rx(/*success=*/true);
  } else {
    start_round(/*reset_tau=*/true);
  }
}

void DelugeNode::handle_data(const Packet& pkt, const net::DelugeDataMsg& msg) {
  (void)pkt;
  if (layout_.units() == 0) return;
  if (state_ == State::kTx) return;  // half-duplex sender: handled by radio
  if (msg.page != complete_pages_ + 1) {
    // Data for a page we can't use; Deluge suppresses its own traffic.
    heard_consistent_ = config_.suppression_k;
    return;
  }
  store_data(msg);
  if (state_ == State::kRx) {
    rx_idle_timer_.cancel();
    rx_idle_timer_ =
        node_->schedule(config_.rx_idle_timeout, [this] { rx_timeout(); });
  }
  if (missing_.none()) page_completed();
}

void DelugeNode::on_packet(const Packet& pkt) {
  if (const auto* summary = pkt.as<net::DelugeSummaryMsg>()) {
    handle_summary(pkt, *summary);
  } else if (const auto* req = pkt.as<net::DelugeRequestMsg>()) {
    handle_request(pkt, *req);
  } else if (const auto* data = pkt.as<net::DelugeDataMsg>()) {
    handle_data(pkt, *data);
  }
}

}  // namespace mnp::baselines
