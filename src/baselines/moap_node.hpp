// MOAP baseline (Stathopoulos, Heidemann, Estrin: "A remote code update
// mechanism for wireless sensor networks").
//
// Key contrasts with MNP, all reproduced here:
//  * strictly hop-by-hop: a node must hold the ENTIRE image before it may
//    publish (no pipelining),
//  * publish-subscribe sender limitation, but no requester-counting
//    election — concurrent publishers are merely discouraged by deferring
//    publishes while data is audible,
//  * sliding-window loss tracking with unicast NACKs, broadcast
//    retransmissions,
//  * the radio stays on for the entire reprogramming session.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mnp/program_image.hpp"
#include "node/application.hpp"
#include "node/node.hpp"
#include "obs/metrics.hpp"

namespace mnp::baselines {

struct MoapConfig {
  std::size_t payload_bytes = 22;

  sim::Time publish_interval_min = sim::sec(1);
  sim::Time publish_interval_max = sim::sec(2);
  sim::Time publish_interval_cap = sim::sec(32);
  /// Publishes due while a neighbor's data stream is audible are deferred
  /// by this much (MOAP's crude sender-limitation knob).
  sim::Time publish_defer = sim::sec(2);

  /// Subscriptions collected for this long before streaming starts.
  sim::Time subscribe_window = sim::msec(600);
  sim::Time pump_interval = sim::msec(10);

  /// Receiver: a gap older than this many packets triggers a NACK.
  std::uint16_t nack_window = 8;
  sim::Time nack_min_gap = sim::msec(250);
  sim::Time rx_idle_timeout = sim::sec(3);

  /// Publisher: repair phase ends after this long without a NACK.
  sim::Time repair_idle_timeout = sim::sec(2);

  /// Crash-safe progress journaling (boot::ProgressJournal): every
  /// 64-packet contiguous prefix chunk is journaled, and a rebooted node
  /// resumes from the journaled prefix. Off by default; the harness
  /// enables it for churn scenarios.
  bool journal_progress = false;
};

class MoapNode final : public node::Application {
 public:
  enum class State : std::uint8_t { kIdle, kSubscribed, kPublishing, kStreaming, kRepair };

  explicit MoapNode(MoapConfig config);
  MoapNode(MoapConfig config, std::shared_ptr<const core::ProgramImage> image);

  void start(node::Node& node) override;
  void on_packet(const net::Packet& pkt) override;
  bool has_complete_image() const override {
    return total_packets_ > 0 && have_count_ == total_packets_;
  }
  /// Power cycle: timers and all pub/sub state die; start() replays the
  /// chunk journal (if enabled) from the surviving EEPROM.
  void reset_for_reboot() override;
  std::uint64_t audit_digest() const override;

  /// Journal granularity: one record per this many contiguous packets.
  static constexpr std::uint32_t kJournalChunkPackets = 64;

  State state() const { return state_; }
  bool is_publisher_capable() const { return has_complete_image(); }

 private:
  void schedule_publish(bool reset_interval);
  void send_publish();
  void handle_publish(const net::Packet& pkt, const net::MoapPublishMsg& msg);
  void handle_subscribe(const net::Packet& pkt, const net::MoapSubscribeMsg& msg);
  void handle_data(const net::Packet& pkt, const net::MoapDataMsg& msg);
  void handle_nack(const net::Packet& pkt, const net::MoapNackMsg& msg);

  void begin_streaming();
  /// Repair phase over (idle timeout): back to Publishing with a clean
  /// timer slate.
  void end_repair();
  void pump_stream();
  void maybe_nack();
  void rx_idle();
  void become_publisher();

  /// The image as a flat packet stream; its units are journal chunks.
  core::ImageLayout layout_of(std::uint32_t program_bytes) const;
  /// Journals every newly completed 64-packet contiguous prefix chunk.
  void maybe_journal();
  bool recover_journal();

  MoapConfig config_;
  std::shared_ptr<const core::ProgramImage> image_;
  node::Node* node_ = nullptr;

  // Telemetry handles (moap.* of DESIGN.md section 9), registered in the
  // network's registry at start().
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::MetricsRegistry::Counter m_publishes_;
  obs::MetricsRegistry::Counter m_nacks_;
  State state_ = State::kIdle;

  std::uint16_t version_ = 0;
  core::ImageLayout layout_;
  /// Packets in the stream: advertised by the publisher, derived from the
  /// layout by the base and by a rebooted node.
  std::uint32_t total_packets_ = 0;
  std::vector<bool> have_;
  std::size_t have_count_ = 0;
  /// Packets covered by journal records so far (a multiple of the chunk
  /// size, except possibly the final chunk).
  std::uint32_t journaled_prefix_ = 0;

  // Receiver side.
  net::NodeId source_ = net::kNoNode;
  sim::Time last_nack_time_ = -1;
  std::size_t last_idle_have_count_ = 0;
  int stalled_idles_ = 0;
  sim::EventHandle rx_idle_timer_;
  sim::EventHandle nack_timer_;

  // Publisher side.
  bool saw_subscriber_ = false;
  std::uint32_t stream_cursor_ = 0;
  std::vector<std::uint16_t> retransmit_queue_;
  sim::Time publish_interval_hi_ = 0;
  sim::EventHandle publish_timer_;
  sim::EventHandle subscribe_window_timer_;
  sim::EventHandle pump_timer_;
  sim::EventHandle repair_timer_;
};

}  // namespace mnp::baselines
