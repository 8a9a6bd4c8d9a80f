#include "baselines/deluge_node.hpp"

#include <utility>

#include "sim/audit.hpp"

namespace mnp::baselines {

using net::Packet;

namespace {

constexpr TrickleNames kNames{"deluge.rounds",
                              "deluge.summaries_sent",
                              "deluge.requests_sent",
                              {"Maintain", "Rx", "Tx"}};

}  // namespace

DelugeNode::DelugeNode(const DelugeConfig& config,
                       std::shared_ptr<const core::ProgramImage> image)
    : TrickleNode(config, kNames, config.packets_per_page, config.payload_bytes,
                  std::move(image)) {}

std::uint64_t DelugeNode::audit_digest() const {
  std::uint64_t h = fold_head(sim::kFnvOffset);
  h = sim::fnv1a(h, missing_for_page_);
  h = fold_session(h);
  return sim::fnv1a(h, tx_cursor_);
}

void DelugeNode::reset_data() {
  missing_ = util::Bitmap{};
  missing_for_page_ = 0;
  tx_vector_ = util::Bitmap{};
  tx_cursor_ = 0;
}

Packet DelugeNode::summary() const {
  net::DelugeSummaryMsg summary;
  summary.version = version_;
  summary.total_pages = layout_.units();
  summary.complete_pages = complete_;
  summary.program_bytes = layout_.bytes();
  Packet pkt;
  pkt.payload = summary;
  return pkt;
}

Packet DelugeNode::request() const {
  net::DelugeRequestMsg req;
  req.dest = rx_source_;
  req.page = static_cast<std::uint16_t>(complete_ + 1);
  req.missing = missing_;
  Packet pkt;
  pkt.payload = req;
  return pkt;
}

void DelugeNode::prepare_rx(std::uint16_t page) {
  if (missing_for_page_ == page) return;
  missing_ = util::Bitmap::all_set(layout_.packets_in(page));
  missing_for_page_ = page;
}

void DelugeNode::prepare_tx(std::uint16_t page) {
  tx_vector_ = util::Bitmap(layout_.packets_in(page));
  tx_cursor_ = 0;
}

bool DelugeNode::send_next() {
  const std::size_t next = tx_vector_.find_first_set(tx_cursor_);
  if (next >= tx_vector_.size()) return false;
  const auto pkt_id = static_cast<std::uint16_t>(next);
  net::DelugeDataMsg data;
  data.version = version_;
  data.page = tx_unit_;
  data.pkt_id = static_cast<std::uint8_t>(next);
  data.payload = node_->frame_pool().acquire_payload();
  if (image_) {
    image_->packet_payload_into(tx_unit_, pkt_id, data.payload);
  } else {
    node_->eeprom().read_into(layout_.offset(tx_unit_, pkt_id),
                              layout_.payload_len(tx_unit_, pkt_id),
                              data.payload);
  }
  Packet pkt;
  pkt.payload = std::move(data);
  node_->send(std::move(pkt));
  tx_cursor_ = static_cast<std::uint16_t>(next + 1);
  return true;
}

// Data reception in any state but TX: Deluge receivers hoard every useful
// packet, overheard or requested.
void DelugeNode::handle_data(const net::DelugeDataMsg& msg) {
  if (!accepts_data(msg.page)) return;
  prepare_rx(msg.page);
  if (missing_.test(msg.pkt_id)) {
    node_->eeprom().write(layout_.offset(msg.page, msg.pkt_id), msg.payload);
    missing_.clear(msg.pkt_id);
  }
  data_heard();
  if (missing_.none()) complete_unit();
}

void DelugeNode::on_packet(const Packet& pkt) {
  if (const auto* summary = pkt.as<net::DelugeSummaryMsg>()) {
    learn_program(summary->version, summary->total_pages,
                  summary->program_bytes);
    heard_summary(pkt.src, summary->complete_pages,
                  summary->complete_pages == complete_);
  } else if (const auto* req = pkt.as<net::DelugeRequestMsg>()) {
    if (!serve_request(req->page, req->dest)) return;
    // Merge the not-yet-passed part of the request into the burst.
    for (std::size_t i = tx_cursor_; i < tx_vector_.size(); ++i) {
      if (req->missing.test(i)) tx_vector_.set(i);
    }
  } else if (const auto* data = pkt.as<net::DelugeDataMsg>()) {
    handle_data(*data);
  }
}

}  // namespace mnp::baselines
