// XNP baseline: TinyOS 1.x single-hop network reprogramming.
//
// The base station broadcasts the entire image packet by packet, then runs
// query/fix rounds: it broadcasts a query, nodes with gaps answer with fix
// requests (randomly delayed to avoid implosion), and the base rebroadcasts
// the requested packets. There is no multihop forwarding whatsoever — only
// nodes inside the base station's radio range ever complete, which is
// exactly the limitation that motivates MNP.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mnp/program_image.hpp"
#include "node/application.hpp"
#include "node/node.hpp"
#include "obs/metrics.hpp"

namespace mnp::baselines {

struct XnpConfig {
  std::size_t payload_bytes = 22;
  sim::Time pump_interval = sim::msec(10);
  /// Pause between the data pass and the first query round.
  sim::Time query_gap = sim::msec(500);
  /// Fix requests are spread over this window after a query.
  sim::Time fix_request_window = sim::msec(400);
  /// The base stops querying after this many consecutive silent rounds.
  int quiet_rounds_to_stop = 8;
  int max_query_rounds = 200;
  /// Missing packets a receiver may claim per query round.
  std::size_t fix_requests_per_query = 4;
};

class XnpNode final : public node::Application {
 public:
  /// Session phase, traced as state changes (XNP has no spec'd protocol
  /// state machine; phases describe where the session is). Base stations
  /// move Idle->Stream->Query(->Stream...)->Done; receivers move
  /// Idle->Stream when they learn the program and ->Done on completion.
  enum class Phase : std::uint8_t { kIdle, kStream, kQuery, kDone };

  /// Receiver.
  explicit XnpNode(XnpConfig config);
  /// Base station.
  XnpNode(XnpConfig config, std::shared_ptr<const core::ProgramImage> image);

  void start(node::Node& node) override;
  void on_packet(const net::Packet& pkt) override;
  bool has_complete_image() const override;
  /// Power cycle: timers and receiver/base session state die; XNP has no
  /// progress journal (its single-hop design predates resumability).
  void reset_for_reboot() override;
  std::uint64_t audit_digest() const override;

  bool is_base() const { return static_cast<bool>(image_); }
  std::size_t packets_received() const;
  Phase phase() const { return phase_; }
  static const char* phase_cname(Phase p);
  /// Base-side introspection for tests: query rounds run so far and
  /// whether the base has concluded the session.
  int query_rounds() const { return query_round_; }
  bool session_done() const { return done_; }

 private:
  void pump_data();
  void start_query_round();
  void handle_data(const net::XnpDataMsg& msg);
  void handle_query(const net::XnpQueryMsg& msg);
  void handle_fix_request(const net::XnpFixRequestMsg& msg);
  /// Phase transition with event-log tracing (like MnpNode::change_state).
  void set_phase(Phase next);

  XnpConfig config_;
  std::shared_ptr<const core::ProgramImage> image_;
  core::ImageLayout layout_;  // the image as one flat packet stream
  node::Node* node_ = nullptr;

  // Telemetry handles (xnp.* of DESIGN.md section 9), registered in the
  // network's registry at start().
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::MetricsRegistry::Counter m_data_sent_;
  obs::MetricsRegistry::Counter m_fix_requests_;
  obs::MetricsRegistry::Counter m_query_rounds_;

  Phase phase_ = Phase::kIdle;

  std::uint32_t total_packets_ = 0;  // receivers learn this from pkt ids seen
  std::vector<bool> have_;          // receiver-side packet map
  std::size_t have_count_ = 0;
  bool saw_last_packet_ = false;

  // Base-side streaming / query machinery.
  std::uint32_t cursor_ = 0;
  std::vector<std::uint16_t> fix_queue_;
  int query_round_ = 0;
  int quiet_rounds_ = 0;
  bool round_had_requests_ = false;
  bool done_ = false;
  sim::EventHandle pump_timer_;
  sim::EventHandle query_timer_;
  sim::EventHandle fix_timer_;
};

}  // namespace mnp::baselines
