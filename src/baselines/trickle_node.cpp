#include "baselines/trickle_node.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "boot/progress_journal.hpp"
#include "node/stats.hpp"
#include "sim/audit.hpp"

namespace mnp::baselines {

TrickleNode::TrickleNode(const TrickleConfig& config, const TrickleNames& names,
                         std::uint16_t unit_packets, std::size_t payload_bytes,
                         std::shared_ptr<const core::ProgramImage> image)
    : image_(std::move(image)),
      config_(config),
      names_(names),
      unit_packets_(unit_packets),
      payload_bytes_(payload_bytes) {
  assert(!image_ || (image_->packets_per_segment() == unit_packets &&
                     image_->payload_bytes() == payload_bytes));
}

void TrickleNode::start(node::Node& node) {
  node_ = &node;
  metrics_ = &node_->stats().metrics();
  m_rounds_ = metrics_->register_counter(names_.rounds, obs::Unit::kCount, true);
  m_summaries_ = metrics_->register_counter(names_.summaries_sent,
                                            obs::Unit::kCount, true);
  m_requests_ = metrics_->register_counter(names_.requests_sent,
                                           obs::Unit::kCount, true);
  on_start();
  node_->radio_on();  // the radio stays on for the whole run
  if (image_) {
    version_ = image_->id();
    layout_ = image_->layout();
    complete_ = layout_.units();
    node_->stats().on_completed(node_->id(), node_->now());
  } else if (recover_journal() && has_complete_image()) {
    node_->stats().on_completed(node_->id(), node_->now());
  }
  start_round(/*reset_tau=*/true);
}

bool TrickleNode::recover_journal() {
  if (!config_.journal_progress) return false;
  const auto rec = boot::ProgressJournal(node_->eeprom()).recover();
  if (!rec) return false;
  version_ = rec->program_id;
  layout_ = core::ImageLayout::of_bytes(rec->program_bytes, unit_packets_,
                                        payload_bytes_);
  complete_ = rec->prefix;
  return complete_ > 0;
}

void TrickleNode::reset_for_reboot() {
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
  complete_ = 0;
  tau_ = 0;
  heard_consistent_ = 0;
  rx_source_ = net::kNoNode;
  request_rounds_ = 0;
  tx_unit_ = 0;
  reset_data();
}

std::uint64_t TrickleNode::fold_head(std::uint64_t h) const {
  h = sim::fnv1a(h, static_cast<std::uint64_t>(state_));
  h = sim::fnv1a(h, version_);
  h = sim::fnv1a(h, layout_.units());
  h = sim::fnv1a(h, complete_);
  h = sim::fnv1a(h, static_cast<std::uint64_t>(tau_));
  return sim::fnv1a(h, static_cast<std::uint64_t>(heard_consistent_));
}

std::uint64_t TrickleNode::fold_session(std::uint64_t h) const {
  h = sim::fnv1a(h, rx_source_);
  h = sim::fnv1a(h, static_cast<std::uint64_t>(request_rounds_));
  return sim::fnv1a(h, tx_unit_);
}

void TrickleNode::learn_program(std::uint16_t version, std::uint16_t units,
                                std::uint32_t bytes) {
  if (layout_.units() == 0 && units > 0) {
    version_ = version;
    layout_ = core::ImageLayout(bytes, unit_packets_, payload_bytes_, units);
    node_->meter().mark_first_advertisement(node_->now());
  }
}

void TrickleNode::trace_state(State next) {
  if (next == state_) return;
  if (auto* log = node_->stats().event_log()) {
    log->record_transition(node_->now(), node_->id(),
                           names_.states[static_cast<std::size_t>(state_)],
                           names_.states[static_cast<std::size_t>(next)]);
  }
}

// --------------------------------------------------------------------------
// MAINTAIN (Trickle)
// --------------------------------------------------------------------------

void TrickleNode::start_round(bool reset_tau) {
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

void TrickleNode::round_fired() {
  if (state_ != State::kMaintain) return;
  if (heard_consistent_ >= config_.suppression_k) return;  // suppressed
  if (node_->send(summary())) metrics_->add(m_summaries_, node_->id());
}

void TrickleNode::heard_summary(net::NodeId src, std::uint16_t their_complete,
                                bool consistent) {
  if (consistent) {
    ++heard_consistent_;
    return;
  }
  // Inconsistency: someone is ahead or behind; Trickle resets.
  if (state_ == State::kMaintain) {
    if (their_complete > complete_) {
      begin_rx(src);
    } else {
      // They are behind: reset tau so our summary reaches them soon.
      start_round(/*reset_tau=*/true);
    }
  }
}

// --------------------------------------------------------------------------
// RX
// --------------------------------------------------------------------------

void TrickleNode::begin_rx(net::NodeId source) {
  trace_state(State::kRx);
  state_ = State::kRx;
  round_timer_.cancel();
  round_end_timer_.cancel();
  rx_source_ = source;
  request_rounds_ = 0;
  prepare_rx(static_cast<std::uint16_t>(complete_ + 1));
  const sim::Time delay = node_->rng().uniform_int(0, config_.request_delay_max);
  request_timer_ = node_->schedule(delay, [this] { send_request(); });
}

void TrickleNode::send_request() {
  if (state_ != State::kRx) return;
  if (request_rounds_ >= config_.max_request_rounds) {
    finish_rx(/*success=*/false);
    return;
  }
  ++request_rounds_;
  if (node_->send(request())) metrics_->add(m_requests_, node_->id());
  // Retried on the idle timeout, bounded by max_request_rounds.
  rx_idle_timer_.cancel();
  rx_idle_timer_ =
      node_->schedule(config_.rx_idle_timeout, [this] { send_request(); });
}

void TrickleNode::data_heard() {
  if (state_ == State::kRx) {
    rx_idle_timer_.cancel();
    rx_idle_timer_ =
        node_->schedule(config_.rx_idle_timeout, [this] { send_request(); });
  }
}

void TrickleNode::finish_rx(bool success) {
  request_timer_.cancel();
  rx_idle_timer_.cancel();
  rx_source_ = net::kNoNode;
  trace_state(State::kMaintain);
  state_ = State::kMaintain;
  start_round(/*reset_tau=*/success);
}

// --------------------------------------------------------------------------
// TX
// --------------------------------------------------------------------------

bool TrickleNode::serve_request(std::uint16_t unit, net::NodeId dest) {
  if (unit == 0 || unit > complete_) return false;  // we don't have it
  if (state_ == State::kTx) return unit == tx_unit_;
  if (dest != node_->id()) return false;
  begin_tx(unit);
  return true;
}

void TrickleNode::begin_tx(std::uint16_t unit) {
  request_timer_.cancel();
  rx_idle_timer_.cancel();
  round_timer_.cancel();
  round_end_timer_.cancel();
  trace_state(State::kTx);
  state_ = State::kTx;
  node_->stats().on_became_sender(node_->id(), node_->now());
  tx_unit_ = unit;
  prepare_tx(unit);
  tx_timer_ = node_->schedule(config_.tx_pump_interval, [this] { pump_tx(); });
}

void TrickleNode::pump_tx() {
  if (state_ != State::kTx) return;
  bool more = true;
  while (more && node_->mac().queue_depth() < 2) more = send_next();
  // A full queue leaves the MAC busy, so idle means the burst is drained.
  if (!more && node_->mac().idle()) {
    trace_state(State::kMaintain);
    state_ = State::kMaintain;
    start_round(/*reset_tau=*/true);
    return;
  }
  tx_timer_ = node_->schedule(config_.tx_pump_interval, [this] { pump_tx(); });
}

// --------------------------------------------------------------------------
// data reception (any state but TX: receivers hoard every useful packet)
// --------------------------------------------------------------------------

bool TrickleNode::accepts_data(std::uint16_t unit) {
  if (layout_.units() == 0) return false;
  if (state_ == State::kTx) return false;  // half-duplex sender
  if (unit != complete_ + 1) {
    heard_consistent_ = config_.suppression_k;
    return false;
  }
  return true;
}

void TrickleNode::complete_unit() {
  ++complete_;
  if (config_.journal_progress) {
    boot::ProgressJournal(node_->eeprom())
        .append(version_, layout_.bytes(), complete_);
  }
  node_->stats().on_segment_completed(node_->id(), complete_, node_->now());
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

}  // namespace mnp::baselines
