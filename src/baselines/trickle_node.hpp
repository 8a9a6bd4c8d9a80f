// The control plane Deluge and NCast share (Hui & Culler's Deluge, over
// Levis et al.'s Trickle), written once. Its three-state machine is
// tools/mnp_lint/trickle_transitions.txt:
//
//  * MAINTAIN: Trickle-suppressed summaries. Each round of length tau a
//    node picks t in [tau/2, tau); it broadcasts its summary at t unless
//    it already heard >= k consistent summaries this round. tau doubles
//    each quiet round from tau_low to tau_high and resets to tau_low on
//    any evidence of inconsistency.
//  * RX: a node that hears a neighbor with more complete units requests
//    the next one from it. Requests are retried on an idle timeout, a
//    bounded number of times, before giving up the round.
//  * TX: a node asked for a unit it holds sends a burst for that unit,
//    keeping two packets queued at the MAC, then returns to MAINTAIN.
//
// Units complete strictly in order, so progress is one count. Each
// protocol keeps only its data plane, behind the hooks below: its
// summary and request messages, its receive and send state for one unit,
// and its own test of "consistent". The hooks never touch the state or a
// timer, so the lint sees the whole machine in trickle_node.cpp.
//
// Two deliberate properties reproduce Deluge's published behaviour: the
// radio is never turned off, and there is no sender election, so
// concurrent senders and hidden-terminal collisions occur naturally.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "mnp/program_image.hpp"
#include "node/application.hpp"
#include "node/node.hpp"
#include "obs/metrics.hpp"

namespace mnp::baselines {

/// The knobs of the shared control plane; each protocol's config extends
/// it with its data plane's.
struct TrickleConfig {
  sim::Time tau_low = sim::msec(1000);
  sim::Time tau_high = sim::sec(60);
  int suppression_k = 1;  // consistent summaries heard before ours is suppressed

  /// Delay before sending a request after deciding to (randomized to
  /// de-synchronize requesters).
  sim::Time request_delay_max = sim::msec(250);
  /// Retries for one unit before dropping back to MAINTAIN.
  int max_request_rounds = 4;
  sim::Time rx_idle_timeout = sim::sec(3);

  sim::Time tx_pump_interval = sim::msec(10);

  /// Crash-safe unit journaling (boot::ProgressJournal in the EEPROM
  /// tail): rebooted nodes resume from their completed-unit prefix. Off
  /// by default; the harness enables it for churn scenarios.
  bool journal_progress = false;
};

/// A protocol's own words for the control plane: its counter names and,
/// for the trace, its names of MAINTAIN, RX and TX.
struct TrickleNames {
  const char* rounds;
  const char* summaries_sent;
  const char* requests_sent;
  std::array<const char*, 3> states;
};

class TrickleNode : public node::Application {
 public:
  enum class State : std::uint8_t { kMaintain, kRx, kTx };

  void start(node::Node& node) final;
  bool has_complete_image() const final {
    return layout_.units() > 0 && complete_ == layout_.units();
  }
  /// Power cycle: timers and Trickle/RX/TX state die; start() replays the
  /// unit journal (if enabled) from the surviving EEPROM.
  void reset_for_reboot() final;

  State state() const { return state_; }

 protected:
  /// `image` is the base station's program; receivers pass none.
  TrickleNode(const TrickleConfig& config, const TrickleNames& names,
              std::uint16_t unit_packets, std::size_t payload_bytes,
              std::shared_ptr<const core::ProgramImage> image);

  // --- what the data plane's packet handlers call ---

  void learn_program(std::uint16_t version, std::uint16_t units,
                     std::uint32_t bytes);
  /// A neighbor's summary; `consistent` is the protocol's own test.
  void heard_summary(net::NodeId src, std::uint16_t their_complete,
                     bool consistent);
  /// A request for `unit` addressed to `dest`. True when the caller merges
  /// it into the burst: the burst in flight is for `unit`, or this call
  /// began one.
  bool serve_request(std::uint16_t unit, net::NodeId dest);
  /// False for a data packet of `unit` that is of no use: the program is
  /// unknown, this node is sending, or `unit` is not the next one (which
  /// also suppresses this round's summary: the network is busy).
  bool accepts_data(std::uint16_t unit);
  /// A useful data packet arrived: restarts RX's idle timeout.
  void data_heard();
  /// Unit complete_ + 1 is stored: journal it, report it, and go on.
  void complete_unit();

  /// The audit fold's shared parts: state, program, progress and Trickle;
  /// then the request session and the burst's unit.
  std::uint64_t fold_head(std::uint64_t h) const;
  std::uint64_t fold_session(std::uint64_t h) const;

  node::Node* node_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
  std::shared_ptr<const core::ProgramImage> image_;
  std::uint16_t version_ = 0;
  core::ImageLayout layout_;  // units() == 0: program still unknown
  std::uint16_t complete_ = 0;  // units 1..complete_ are held
  net::NodeId rx_source_ = net::kNoNode;
  std::uint16_t tx_unit_ = 0;

 private:
  // --- the data plane ---

  /// Registers the protocol's own metrics (after the control plane's).
  virtual void on_start() {}
  virtual net::Packet summary() const = 0;
  /// A request for unit complete_ + 1, to rx_source_.
  virtual net::Packet request() const = 0;
  /// Readies receive state for `unit`, keeping what already arrived of it.
  virtual void prepare_rx(std::uint16_t unit) = 0;
  /// Starts an empty burst for `unit`; the request that began it is merged
  /// in by serve_request's caller.
  virtual void prepare_tx(std::uint16_t unit) = 0;
  /// Queues the burst's next packet; false when the burst has none left.
  virtual bool send_next() = 0;
  virtual void reset_data() = 0;

  void start_round(bool reset_tau);
  void round_fired();
  void begin_rx(net::NodeId source);
  void send_request();
  void finish_rx(bool success);
  void begin_tx(std::uint16_t unit);
  void pump_tx();
  bool recover_journal();
  void trace_state(State next);

  TrickleConfig config_;
  const TrickleNames& names_;
  std::uint16_t unit_packets_;
  std::size_t payload_bytes_;
  State state_ = State::kMaintain;

  // Registered in the network's registry at start().
  obs::MetricsRegistry::Counter m_rounds_;
  obs::MetricsRegistry::Counter m_summaries_;
  obs::MetricsRegistry::Counter m_requests_;

  // Trickle state.
  sim::Time tau_ = 0;
  int heard_consistent_ = 0;
  sim::EventHandle round_timer_;  // fires at t within the round
  sim::EventHandle round_end_timer_;

  // Request session.
  int request_rounds_ = 0;
  sim::EventHandle request_timer_;
  sim::EventHandle rx_idle_timer_;

  sim::EventHandle tx_timer_;
};

}  // namespace mnp::baselines
