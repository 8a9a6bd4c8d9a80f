// Deluge baseline (Hui & Culler, SenSys'04) — the protocol the paper's
// section 5 compares MNP against.
//
// Faithful-in-shape reimplementation:
//  * MAINTAIN: Trickle-suppressed summaries. Each round of length tau a
//    node picks t in [tau/2, tau); it broadcasts its summary (version,
//    number of complete pages) at t unless it already heard >= k identical
//    summaries this round. tau doubles each quiet round from tau_low to
//    tau_high and resets to tau_low on any evidence of inconsistency.
//  * RX: a node that learns a neighbor holds page gamma+1 requests it
//    (unicast-addressed NACK with the needed-packet bit vector) and
//    collects broadcast data; requests are retried a bounded number of
//    times before giving up the round.
//  * TX: a node receiving a request streams the union of requested
//    packets for that page, then returns to MAINTAIN.
//
// Two deliberate properties reproduce Deluge's published behaviour:
//  - the radio is NEVER turned off (active radio time == elapsed time),
//  - there is no sender election, so concurrent senders and hidden-
//    terminal collisions occur naturally in dense networks.
#pragma once

#include <cstdint>
#include <memory>
#include <set>

#include "mnp/program_image.hpp"
#include "node/application.hpp"
#include "node/node.hpp"
#include "obs/metrics.hpp"
#include "util/bitmap.hpp"

namespace mnp::baselines {

struct DelugeConfig {
  std::uint16_t packets_per_page = 48;  // Deluge's page = 48 packets
  std::size_t payload_bytes = 22;

  sim::Time tau_low = sim::msec(1000);
  sim::Time tau_high = sim::sec(60);
  int suppression_k = 1;  // summaries heard before ours is suppressed

  /// Delay before sending a request after deciding to (randomized to
  /// de-synchronize requesters).
  sim::Time request_delay_max = sim::msec(250);
  /// Retries for one page before dropping back to MAINTAIN.
  int max_request_rounds = 4;
  sim::Time rx_idle_timeout = sim::sec(3);

  sim::Time tx_pump_interval = sim::msec(10);

  /// Crash-safe page journaling (boot::ProgressJournal in the EEPROM
  /// tail): rebooted nodes resume from their completed-page prefix. Off
  /// by default; the harness enables it for churn scenarios.
  bool journal_progress = false;
};

class DelugeNode final : public node::Application {
 public:
  enum class State : std::uint8_t { kMaintain, kRx, kTx };

  explicit DelugeNode(DelugeConfig config);
  DelugeNode(DelugeConfig config, std::shared_ptr<const core::ProgramImage> image);

  void start(node::Node& node) override;
  void on_packet(const net::Packet& pkt) override;
  bool has_complete_image() const override {
    return layout_.units() > 0 && complete_pages_ == layout_.units();
  }
  /// Power cycle: timers and Trickle/RX/TX state die; start() replays the
  /// page journal (if enabled) from the surviving EEPROM.
  void reset_for_reboot() override;
  std::uint64_t audit_digest() const override;

  State state() const { return state_; }
  std::uint16_t complete_pages() const { return complete_pages_; }
  bool is_base() const { return static_cast<bool>(image_); }

 private:
  void start_round(bool reset_tau);
  void round_fired();
  void handle_summary(const net::Packet& pkt, const net::DelugeSummaryMsg& msg);
  void handle_request(const net::Packet& pkt, const net::DelugeRequestMsg& msg);
  void handle_data(const net::Packet& pkt, const net::DelugeDataMsg& msg);

  void begin_rx(net::NodeId source);
  void send_request();
  void rx_timeout();
  void finish_rx(bool success);

  void begin_tx(std::uint16_t page);
  void pump_tx();

  void store_data(const net::DelugeDataMsg& msg);
  void page_completed();
  bool recover_journal();

  void ensure_missing(std::uint16_t page);
  void learn_program(std::uint16_t version, std::uint16_t pages,
                     std::uint32_t bytes);

  DelugeConfig config_;
  std::shared_ptr<const core::ProgramImage> image_;
  node::Node* node_ = nullptr;
  State state_ = State::kMaintain;

  // Telemetry handles (deluge.* of DESIGN.md section 9), registered in the
  // network's registry at start().
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::MetricsRegistry::Counter m_rounds_;
  obs::MetricsRegistry::Counter m_summaries_;
  obs::MetricsRegistry::Counter m_requests_;

  std::uint16_t version_ = 0;
  core::ImageLayout layout_;  // units() == 0: program still unknown
  std::uint16_t complete_pages_ = 0;

  // Trickle state.
  sim::Time tau_ = 0;
  int heard_consistent_ = 0;
  sim::EventHandle round_timer_;   // fires at t within the round
  sim::EventHandle round_end_timer_;

  // RX state.
  util::Bitmap missing_;
  std::uint16_t missing_for_page_ = 0;
  net::NodeId rx_source_ = net::kNoNode;
  int request_rounds_ = 0;
  sim::EventHandle request_timer_;
  sim::EventHandle rx_idle_timer_;

  // TX state.
  std::uint16_t tx_page_ = 0;
  util::Bitmap tx_vector_;
  std::uint16_t tx_cursor_ = 0;
  sim::EventHandle tx_timer_;
};

}  // namespace mnp::baselines
