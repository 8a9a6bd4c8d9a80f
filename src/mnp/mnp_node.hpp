// MnpNode: the MNP protocol (the paper's primary contribution), one
// instance per mote, implemented exactly as the Fig.-4 state machine:
//
//   Idle ----Adv(new seg)----> (send DL request, stay)
//   Idle ----StartDownload(expected seg)/Data(expected seg)--> Download
//   Download --EndDownload, none missing--> Advertise
//   Download --EndDownload, missing & query/update--> Update
//   Download --timeout--> Fail --(release)--> Idle
//   Advertise --K advs && ReqCtr>0--> Forward
//   Advertise --K advs && ReqCtr==0--> Advertise (interval doubles)
//   Advertise --saw better source (higher ReqCtr / lower segment)--> Sleep
//   Advertise --StartDownload/Data for uninteresting seg--> Sleep
//   Forward --segment streamed--> Query (or Sleep without query/update)
//   Query --repair requests--> retransmissions; --idle--> Sleep
//   Update --retransmission--> request next missing; --none missing--> Advertise
//   Sleep --timer--> Advertise (sources) / Idle (nodes with nothing yet)
//
// Sender selection: sources count distinct requesters (ReqCtr). Both
// advertisements and download requests carry ReqCtr, and download requests
// are broadcast although logically destined to one source — overhearing
// them is how MNP defeats the hidden terminal problem: a source learns of
// a competitor two hops away through the requests their shared neighbor
// broadcasts. The source with the highest (ReqCtr, id) pair keeps
// advertising; everyone else turns its radio off.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mnp/mnp_config.hpp"
#include "mnp/program_image.hpp"
#include "node/application.hpp"
#include "node/node.hpp"
#include "obs/metrics.hpp"
#include "util/bitmap.hpp"

namespace mnp::core {

class MnpNode final : public node::Application {
 public:
  enum class State : std::uint8_t {
    kIdle,
    kDownload,
    kAdvertise,
    kForward,
    kQuery,
    kUpdate,
    kSleep,
    // Fail is transient in the paper (release EEPROM, go idle); we pass
    // through it atomically and never rest in it.
  };

  /// Regular node: knows nothing about the program until it hears an
  /// advertisement.
  explicit MnpNode(MnpConfig config);

  /// Base station: boots holding the complete image and immediately
  /// starts advertising it.
  MnpNode(MnpConfig config, std::shared_ptr<const ProgramImage> image);

  // --- Application --------------------------------------------------------
  void start(node::Node& node) override;
  void on_packet(const net::Packet& pkt) override;
  bool has_complete_image() const override {
    return layout_.units() > 0 && rvd_seg_ == layout_.units();
  }
  /// Power cycle: cancels every pending timer and wipes volatile protocol
  /// state; the next start() replays the progress journal (if enabled)
  /// from the surviving EEPROM.
  void reset_for_reboot() override;
  std::uint64_t audit_digest() const override;

  // --- introspection (tests, benches) ------------------------------------
  State state() const { return state_; }
  static std::string state_name(State s);
  /// Allocation-free spelling used on the trace hot path.
  static const char* state_cname(State s);
  std::uint16_t received_segments() const { return rvd_seg_; }
  std::uint16_t advertised_segment() const { return adv_seg_; }
  std::uint8_t req_ctr() const { return req_ctr_; }
  int parent() const { return parent_; }
  bool is_base() const { return static_cast<bool>(image_); }
  std::uint32_t fail_count() const { return fail_count_; }
  /// Paper section 3.5: local estimate that every neighbor has the code
  /// (K advertisements of the last segment drew no request). The node
  /// still reboots only on the external signal.
  bool neighborhood_estimated_complete() const { return neighborhood_complete_; }
  /// The external start signal: returns true (and "reboots") only when
  /// the image is complete and verified.
  bool reboot(const ProgramImage& oracle);

  /// Remaining battery fraction used by the battery-aware extension.
  void set_battery_level(double fraction);
  double battery_level() const { return battery_level_; }

 private:
  // --- state transitions -------------------------------------------------
  void enter_idle();
  void enter_download(net::NodeId parent, std::uint16_t seg);
  void enter_advertise(bool reset_interval);
  void enter_forward();
  void enter_query();
  void enter_update();
  void enter_sleep();
  /// Yield as a source but stay awake as a requester (the winning source
  /// is about to transmit the segment this node needs).
  void enter_wait_for_transfer();
  void fail();  // transient: release resources, -> Idle (or Advertise)

  // --- message handlers -----------------------------------------------------
  void handle_advertisement(const net::Packet& pkt, const net::AdvertisementMsg& adv);
  void handle_download_request(const net::Packet& pkt, const net::DownloadRequestMsg& req);
  void handle_start_download(const net::Packet& pkt, const net::StartDownloadMsg& msg);
  void handle_data(const net::Packet& pkt, const net::DataMsg& msg);
  void handle_end_download(const net::Packet& pkt, const net::EndDownloadMsg& msg);
  void handle_query(const net::Packet& pkt, const net::QueryMsg& msg);
  void handle_repair_request(const net::Packet& pkt, const net::RepairRequestMsg& msg);

  // --- helpers ----------------------------------------------------------
  void cancel_timers();
  /// Transition with optional event-log tracing.
  void change_state(State next);
  void send_advertisement();
  void schedule_next_advertisement();
  void maybe_nap();
  /// Pre-wave duty cycling: sleep/listen cycles while the program is
  /// still unheard-of (see MnpConfig::pre_wave_duty_cycle).
  void schedule_pre_wave_cycle();
  void send_download_request(net::NodeId dest, std::uint8_t req_ctr_echo);
  /// Folds a destined-to-us request into the ForwardVector (handles both
  /// the windowed and the request-all forms).
  void merge_request(const net::DownloadRequestMsg& req);
  /// Records `id` as a requester of adv_seg_; false if it already was one.
  bool add_requester(net::NodeId id);
  void store_data_packet(const net::DataMsg& msg);
  void complete_current_segment();
  void pump_forward_queue();
  void send_data_packet(std::uint16_t seg, std::uint16_t pkt_id);
  void send_next_repair_request();
  void arm_download_timeout();
  void learn_program(const net::AdvertisementMsg& adv);
  /// Subset dissemination: whether this node participates in `program_id`.
  bool accepts_program(std::uint16_t program_id) const;
  bool needs_code() const {
    return layout_.units() == 0 || rvd_seg_ < layout_.units();
  }
  /// Eligible to act as a source: with pipelining, any complete segment
  /// qualifies; without it, only the full image does (section 3.1.1).
  bool can_advertise() const;
  std::uint16_t expected_seg() const { return static_cast<std::uint16_t>(rvd_seg_ + 1); }
  void ensure_missing_vector(std::uint16_t seg);
  /// Replays the journal at boot: restores program geometry and the
  /// completed-segment prefix. Returns true if progress was recovered.
  bool recover_journal();
  sim::Time segment_transfer_estimate() const;
  /// True if (their_req_ctr, their_id) beats (my req_ctr, my id).
  bool loses_to(std::uint8_t their_req_ctr, net::NodeId their_id) const;

  MnpConfig config_;
  std::shared_ptr<const ProgramImage> image_;  // base station only
  node::Node* node_ = nullptr;

  // Telemetry (DESIGN.md section 9): handles registered in the network's
  // registry at start(); change_state() then increments through plain
  // array indexing. Index = static_cast<size_t>(State).
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::MetricsRegistry::Counter m_state_entries_[7];
  obs::MetricsRegistry::Counter m_requests_sent_;
  obs::MetricsRegistry::Counter m_data_sent_;

  State state_ = State::kIdle;

  // Program metadata (learned from advertisements; innate for the base).
  std::uint16_t program_id_ = 0;
  ImageLayout layout_;  // units() == 0: program still unknown

  // Receiver side.
  std::uint16_t rvd_seg_ = 0;        // highest fully received segment
  // MissingVector for missing_for_seg_. A BigBitmap: with pipelining the
  // segment is <= 128 packets (fits in RAM/one radio packet); the basic
  // protocol's large segments model the paper's EEPROM-backed variant.
  util::BigBitmap missing_;
  std::uint16_t missing_for_seg_ = 0;
  int parent_ = -1;
  std::uint16_t downloading_seg_ = 0;

  // Source side.
  std::uint16_t adv_seg_ = 0;        // segment currently advertised
  std::uint8_t req_ctr_ = 0;
  std::vector<net::NodeId> requesters_;  // distinct, unordered
  util::BigBitmap forward_vector_;
  int adv_count_ = 0;
  sim::Time adv_interval_hi_ = 0;    // current (possibly backed-off) max
  std::uint16_t forward_cursor_ = 0; // next packet index to stream
  bool end_download_sent_ = false;

  sim::EventHandle request_timer_;
  sim::EventHandle pre_wave_timer_;
  sim::EventHandle nap_timer_;
  sim::EventHandle adv_timer_;
  sim::EventHandle sleep_timer_;
  sim::EventHandle download_timer_;
  sim::EventHandle forward_timer_;
  sim::EventHandle query_timer_;
  sim::EventHandle update_timer_;

  std::uint32_t fail_count_ = 0;
  bool neighborhood_complete_ = false;
  double battery_level_ = 1.0;
  bool rebooted_ = false;
};

}  // namespace mnp::core
