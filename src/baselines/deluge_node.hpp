// Deluge baseline (Hui & Culler, SenSys'04) — the protocol the paper's
// section 5 compares MNP against.
//
// Faithful-in-shape reimplementation over the shared Trickle control
// plane (trickle_node.hpp), whose units are Deluge's pages:
//  * MAINTAIN advertises summaries (version, number of complete pages);
//    a neighbor is consistent when its complete-page count matches ours.
//  * RX requests page gamma+1 with a unicast-addressed NACK carrying the
//    needed-packet bit vector, and collects broadcast data.
//  * TX streams the union of requested packets for that page.
#pragma once

#include <cstdint>
#include <memory>

#include "baselines/trickle_node.hpp"
#include "util/bitmap.hpp"

namespace mnp::baselines {

struct DelugeConfig : TrickleConfig {
  std::uint16_t packets_per_page = 48;  // Deluge's page = 48 packets
  std::size_t payload_bytes = 22;
};

class DelugeNode final : public TrickleNode {
 public:
  explicit DelugeNode(const DelugeConfig& config,
                      std::shared_ptr<const core::ProgramImage> image = nullptr);

  void on_packet(const net::Packet& pkt) override;
  std::uint64_t audit_digest() const override;

  std::uint16_t complete_pages() const { return complete_; }

 private:
  net::Packet summary() const override;
  net::Packet request() const override;
  void prepare_rx(std::uint16_t page) override;
  void prepare_tx(std::uint16_t page) override;
  bool send_next() override;
  void reset_data() override;

  void handle_data(const net::DelugeDataMsg& msg);

  // RX state.
  util::Bitmap missing_;
  std::uint16_t missing_for_page_ = 0;

  // TX state: the packets still to send, from tx_cursor_ on.
  util::Bitmap tx_vector_;
  std::uint16_t tx_cursor_ = 0;
};

}  // namespace mnp::baselines
