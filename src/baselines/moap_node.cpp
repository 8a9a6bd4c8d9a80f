#include "baselines/moap_node.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "boot/progress_journal.hpp"
#include "node/stats.hpp"
#include "sim/audit.hpp"

namespace mnp::baselines {

using net::Packet;

MoapNode::MoapNode(MoapConfig config) : config_(config) {}

MoapNode::MoapNode(MoapConfig config,
                   std::shared_ptr<const core::ProgramImage> image)
    : config_(config), image_(std::move(image)) {
  assert(image_);
  assert(image_->payload_bytes() == config_.payload_bytes);
}

void MoapNode::start(node::Node& node) {
  // Entry guard: nodes boot in Idle (anchors mnp_lint's extraction).
  assert(state_ == State::kIdle);
  node_ = &node;
  metrics_ = &node_->stats().metrics();
  m_publishes_ = metrics_->register_counter("moap.publishes_sent",
                                            obs::Unit::kCount, true);
  m_nacks_ =
      metrics_->register_counter("moap.nacks_sent", obs::Unit::kCount, true);
  node_->radio_on();  // MOAP never turns the radio off
  if (image_) {
    version_ = image_->id();
    layout_ = layout_of(static_cast<std::uint32_t>(image_->total_bytes()));
    total_packets_ = layout_.total_packets();
    have_.assign(total_packets_, true);
    have_count_ = total_packets_;
    node_->stats().on_completed(node_->id(), node_->now());
    become_publisher();
  } else if (recover_journal() && has_complete_image()) {
    // Rebooted after finishing the download: rejoin as a publisher.
    node_->stats().on_completed(node_->id(), node_->now());
    become_publisher();
  }
  // A partially recovered node stays Idle; the next publish it hears
  // re-subscribes it, and NACKs pull down only the missing tail.
}

core::ImageLayout MoapNode::layout_of(std::uint32_t program_bytes) const {
  return core::ImageLayout::of_bytes(
      program_bytes, static_cast<std::uint16_t>(kJournalChunkPackets),
      config_.payload_bytes);
}

void MoapNode::maybe_journal() {
  if (!config_.journal_progress || total_packets_ == 0) return;
  boot::ProgressJournal journal(node_->eeprom());
  // Checked up front: a chunk the journal can never hold must not count
  // as journaled.
  if (!journal.usable(layout_.bytes())) return;
  while (journaled_prefix_ < total_packets_) {
    const std::uint32_t next_end =
        std::min(journaled_prefix_ + kJournalChunkPackets, total_packets_);
    bool chunk_complete = true;
    for (std::uint32_t i = journaled_prefix_; i < next_end; ++i) {
      if (!have_[i]) {
        chunk_complete = false;
        break;
      }
    }
    if (!chunk_complete) break;
    const std::uint16_t chunk =
        static_cast<std::uint16_t>(journaled_prefix_ / kJournalChunkPackets + 1);
    journal.append(version_, layout_.bytes(), chunk);
    journaled_prefix_ = next_end;
  }
}

bool MoapNode::recover_journal() {
  if (!config_.journal_progress) return false;
  const auto rec = boot::ProgressJournal(node_->eeprom()).recover();
  if (!rec) return false;
  version_ = rec->program_id;
  layout_ = layout_of(rec->program_bytes);
  total_packets_ = layout_.total_packets();
  have_.assign(total_packets_, false);
  have_count_ = 0;
  journaled_prefix_ = std::min(
      static_cast<std::uint32_t>(rec->prefix) * kJournalChunkPackets,
      total_packets_);
  for (std::uint32_t i = 0; i < journaled_prefix_; ++i) {
    have_[i] = true;
    ++have_count_;
  }
  return have_count_ > 0;
}

void MoapNode::reset_for_reboot() {
  rx_idle_timer_.cancel();
  nack_timer_.cancel();
  publish_timer_.cancel();
  subscribe_window_timer_.cancel();
  pump_timer_.cancel();
  repair_timer_.cancel();
  if (state_ != State::kIdle) {
    state_ = State::kIdle;
  }
  version_ = 0;
  layout_ = core::ImageLayout{};
  total_packets_ = 0;
  have_.clear();
  have_count_ = 0;
  journaled_prefix_ = 0;
  source_ = net::kNoNode;
  last_nack_time_ = -1;
  last_idle_have_count_ = 0;
  stalled_idles_ = 0;
  saw_subscriber_ = false;
  stream_cursor_ = 0;
  retransmit_queue_.clear();
  publish_interval_hi_ = 0;
}

std::uint64_t MoapNode::audit_digest() const {
  std::uint64_t h = sim::kFnvOffset;
  h = sim::fnv1a(h, static_cast<std::uint64_t>(state_));
  h = sim::fnv1a(h, version_);
  h = sim::fnv1a(h, total_packets_);
  h = sim::fnv1a(h, have_count_);
  h = sim::fnv1a(h, journaled_prefix_);
  h = sim::fnv1a(h, source_);
  h = sim::fnv1a(h, static_cast<std::uint64_t>(stalled_idles_));
  h = sim::fnv1a(h, saw_subscriber_ ? 1u : 0u);
  h = sim::fnv1a(h, stream_cursor_);
  h = sim::fnv1a(h, retransmit_queue_.size());
  return h;
}

// --------------------------------------------------------------------------
// publisher
// --------------------------------------------------------------------------

void MoapNode::become_publisher() {
  state_ = State::kPublishing;
  saw_subscriber_ = false;
  schedule_publish(/*reset_interval=*/true);
}

void MoapNode::schedule_publish(bool reset_interval) {
  if (reset_interval || publish_interval_hi_ == 0) {
    publish_interval_hi_ = config_.publish_interval_max;
  }
  const sim::Time delay =
      node_->rng().uniform_int(config_.publish_interval_min, publish_interval_hi_);
  publish_timer_ = node_->schedule(delay, [this] { send_publish(); });
}

void MoapNode::send_publish() {
  if (state_ != State::kPublishing) return;
  Packet pkt;
  net::MoapPublishMsg msg;
  msg.version = version_;
  msg.total_packets = static_cast<std::uint16_t>(total_packets_);
  msg.program_bytes = layout_.bytes();
  pkt.payload = msg;
  if (node_->send(std::move(pkt))) {
    metrics_->add(m_publishes_, node_->id());
  }
  // Collect subscriptions for a window; if none, slow down (quiescent
  // neighborhood) and try again later.
  subscribe_window_timer_ =
      node_->schedule(config_.subscribe_window, [this] {
        if (state_ != State::kPublishing) return;
        if (saw_subscriber_) {
          begin_streaming();
        } else {
          publish_interval_hi_ =
              std::min(publish_interval_hi_ * 2, config_.publish_interval_cap);
          schedule_publish(/*reset_interval=*/false);
        }
      });
}

void MoapNode::handle_subscribe(const Packet& pkt,
                                const net::MoapSubscribeMsg& msg) {
  (void)pkt;
  if (msg.dest != node_->id()) return;
  if (state_ == State::kPublishing) {
    saw_subscriber_ = true;
  } else if (state_ == State::kRepair || state_ == State::kStreaming) {
    // Late subscriber: it will pick packets from the ongoing broadcast and
    // NACK the rest during repair.
    saw_subscriber_ = true;
  }
}

void MoapNode::begin_streaming() {
  // A deferred publish (handle_data's concurrent-sender mitigation) may
  // still be pending from Publishing; streaming supersedes it.
  publish_timer_.cancel();
  subscribe_window_timer_.cancel();
  state_ = State::kStreaming;
  saw_subscriber_ = false;  // future publishes need fresh interest
  node_->stats().on_became_sender(node_->id(), node_->now());
  stream_cursor_ = 0;
  retransmit_queue_.clear();
  pump_timer_ = node_->schedule(config_.pump_interval, [this] { pump_stream(); });
}

void MoapNode::end_repair() {
  // pump_stream re-arms itself even when Repair has nothing queued, so
  // the pump must die with the phase or it would tick on in Publishing.
  pump_timer_.cancel();
  state_ = State::kPublishing;
  schedule_publish(/*reset_interval=*/false);
}

void MoapNode::pump_stream() {
  if (state_ != State::kStreaming && state_ != State::kRepair) return;
  while (node_->mac().queue_depth() < 2) {
    std::uint16_t pkt_id;
    if (!retransmit_queue_.empty()) {
      pkt_id = retransmit_queue_.front();
      retransmit_queue_.erase(retransmit_queue_.begin());
    } else if (state_ == State::kStreaming && stream_cursor_ < total_packets_) {
      pkt_id = static_cast<std::uint16_t>(stream_cursor_++);
    } else {
      break;
    }
    Packet pkt;
    net::MoapDataMsg data;
    data.version = version_;
    data.pkt_id = pkt_id;
    data.payload = node_->frame_pool().acquire_payload();
    const std::size_t offset = layout_.offset(pkt_id);
    const std::size_t len = layout_.payload_len(pkt_id);
    if (image_) {
      const auto first = image_->bytes().begin() + static_cast<long>(offset);
      data.payload.insert(data.payload.end(), first,
                          first + static_cast<long>(len));
    } else {
      node_->eeprom().read_into(offset, len, data.payload);
    }
    pkt.payload = std::move(data);
    node_->send(std::move(pkt));
  }
  if (state_ == State::kStreaming && stream_cursor_ >= total_packets_ &&
      retransmit_queue_.empty() && node_->mac().idle()) {
    // First pass done: answer NACKs until the neighborhood goes quiet.
    state_ = State::kRepair;
    repair_timer_ = node_->schedule(config_.repair_idle_timeout,
                                    [this] { end_repair(); });
    return;
  }
  pump_timer_ = node_->schedule(config_.pump_interval, [this] { pump_stream(); });
}

void MoapNode::handle_nack(const Packet& pkt, const net::MoapNackMsg& msg) {
  (void)pkt;
  if (msg.dest != node_->id()) return;
  if (state_ != State::kStreaming && state_ != State::kRepair) return;
  if (msg.pkt_id >= total_packets_) return;
  if (std::find(retransmit_queue_.begin(), retransmit_queue_.end(), msg.pkt_id) ==
      retransmit_queue_.end()) {
    retransmit_queue_.push_back(msg.pkt_id);
  }
  if (state_ == State::kRepair) {
    repair_timer_.cancel();
    repair_timer_ = node_->schedule(config_.repair_idle_timeout,
                                    [this] { end_repair(); });
    pump_timer_.cancel();
    pump_timer_ = node_->schedule(config_.pump_interval, [this] { pump_stream(); });
  }
}

// --------------------------------------------------------------------------
// receiver
// --------------------------------------------------------------------------

void MoapNode::handle_publish(const Packet& pkt, const net::MoapPublishMsg& msg) {
  if (image_) return;
  if (total_packets_ == 0 && msg.total_packets > 0) {
    version_ = msg.version;
    total_packets_ = msg.total_packets;
    layout_ = layout_of(msg.program_bytes);
    have_.assign(total_packets_, false);
    node_->meter().mark_first_advertisement(node_->now());
  }
  if (has_complete_image()) return;
  if (state_ != State::kIdle) return;  // already subscribed or busy
  state_ = State::kSubscribed;
  source_ = pkt.src;
  node_->stats().on_parent_set(node_->id(), pkt.src);
  Packet out;
  out.payload = net::MoapSubscribeMsg{pkt.src};
  node_->send(std::move(out));
  rx_idle_timer_.cancel();
  rx_idle_timer_ = node_->schedule(config_.rx_idle_timeout, [this] { rx_idle(); });
}

void MoapNode::rx_idle() {
  if (state_ != State::kSubscribed) return;
  if (has_complete_image()) return;
  if (have_count_ > last_idle_have_count_) {
    stalled_idles_ = 0;
  } else {
    ++stalled_idles_;
  }
  last_idle_have_count_ = have_count_;
  if (have_count_ > 0 && stalled_idles_ < 3) {
    // Mid-image stall: try NACKing our way forward before giving up.
    maybe_nack();
    rx_idle_timer_ =
        node_->schedule(config_.rx_idle_timeout, [this] { rx_idle(); });
  } else {
    // Dead source (or never heard a byte): drop the subscription and wait
    // for the next publish; received packets are kept.
    state_ = State::kIdle;
    source_ = net::kNoNode;
    stalled_idles_ = 0;
  }
}

void MoapNode::maybe_nack() {
  if (source_ == net::kNoNode || total_packets_ == 0) return;
  const sim::Time now = node_->now();
  if (last_nack_time_ >= 0 && now - last_nack_time_ < config_.nack_min_gap) return;
  for (std::size_t i = 0; i < have_.size(); ++i) {
    if (!have_[i]) {
      Packet pkt;
      pkt.payload = net::MoapNackMsg{source_, static_cast<std::uint16_t>(i)};
      if (node_->send(std::move(pkt))) {
        metrics_->add(m_nacks_, node_->id());
      }
      last_nack_time_ = now;
      return;
    }
  }
}

void MoapNode::handle_data(const Packet& pkt, const net::MoapDataMsg& msg) {
  if (image_ || total_packets_ == 0) return;
  if (state_ == State::kPublishing) {
    // Another publisher is busy nearby: defer our own publishing (MOAP's
    // concurrent-sender mitigation).
    publish_timer_.cancel();
    publish_timer_ =
        node_->schedule(config_.publish_defer, [this] { send_publish(); });
    return;
  }
  if (state_ == State::kStreaming || state_ == State::kRepair) {
    // Both states imply a complete image, which the has_complete_image()
    // check below would reject anyway; returning here keeps the
    // opportunistic-join assignment provably an Idle -> Subscribed edge.
    return;
  }
  if (state_ != State::kSubscribed) {
    if (has_complete_image()) return;
    // Opportunistic join: data is flowing, subscribe to its source.
    state_ = State::kSubscribed;
    source_ = pkt.src;
    node_->stats().on_parent_set(node_->id(), pkt.src);
  }
  if (msg.pkt_id < have_.size() && !have_[msg.pkt_id]) {
    node_->eeprom().write(layout_.offset(msg.pkt_id), msg.payload);
    have_[msg.pkt_id] = true;
    ++have_count_;
    maybe_journal();
  }
  rx_idle_timer_.cancel();
  rx_idle_timer_ = node_->schedule(config_.rx_idle_timeout, [this] { rx_idle(); });

  if (has_complete_image()) {
    node_->stats().on_completed(node_->id(), node_->now());
    rx_idle_timer_.cancel();
    nack_timer_.cancel();
    // Hop-by-hop relay: now that the whole image is here, publish it.
    become_publisher();
    return;
  }
  // Sliding-window loss detection: a hole older than the window => NACK.
  if (msg.pkt_id >= config_.nack_window) {
    const std::size_t horizon = msg.pkt_id - config_.nack_window;
    for (std::size_t i = 0; i <= horizon; ++i) {
      if (!have_[i]) {
        maybe_nack();
        break;
      }
    }
  }
  // Tail repair: the last packet arrived but gaps remain.
  if (static_cast<std::uint32_t>(msg.pkt_id) + 1 == total_packets_) maybe_nack();
}

void MoapNode::on_packet(const Packet& pkt) {
  if (const auto* pub = pkt.as<net::MoapPublishMsg>()) {
    handle_publish(pkt, *pub);
  } else if (const auto* sub = pkt.as<net::MoapSubscribeMsg>()) {
    handle_subscribe(pkt, *sub);
  } else if (const auto* data = pkt.as<net::MoapDataMsg>()) {
    handle_data(pkt, *data);
  } else if (const auto* nack = pkt.as<net::MoapNackMsg>()) {
    handle_nack(pkt, *nack);
  }
}

}  // namespace mnp::baselines
