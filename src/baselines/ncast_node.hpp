// NCast baseline: rateless network-coded dissemination (DESIGN.md §13).
//
// The fourth protocol in the zoo answers a structural question the other
// three cannot: what does loss recovery cost when packets carry *rank*
// instead of identity? MNP, Deluge and XNP all track which packets are
// missing (MissingVector, NACK bitmaps, fix lists) and repair by name.
// NCast codes instead: the image is cut into generations of k packets,
// senders broadcast random GF(256) linear combinations of a generation,
// and a receiver needs any k linearly independent combinations — which
// k arrive, and from whom, is irrelevant. Under loss there is nothing to
// re-request by name; the stream itself is the repair.
//
// Shape of the protocol (deliberately parallel to the Deluge baseline so
// the comparison isolates coding, not timer tuning):
//  * ADVERTISE: Trickle-suppressed advertisements carrying (complete
//    generations, current decoder rank). A neighbor is consistent when
//    both match; rank-only differences reset tau without triggering a
//    request, because only complete generations are served.
//  * DECODE: a node that hears an advertiser with more complete
//    generations requests its working generation, reporting its rank;
//    every overheard coded packet for that generation feeds the
//    incremental Gaussian eliminator, innovative or not.
//  * FORWARD: a node asked for a generation it has completed streams
//    rank-deficit + redundancy fresh combinations drawn from its decoded
//    bytes — recoding, not store-and-replay, so downstream losses never
//    correlate with upstream ones.
//
// Determinism: coefficient vectors are never shipped. A coded packet
// carries a 2-byte coeff_seed; both ends expand (gen, seed) through the
// same pure generator, so the wire cost of coding is 2 bytes per packet
// regardless of k. Senders draw seeds from a forked per-node RNG stream,
// preserving the repository's (seed, config) -> trace contract.
#pragma once

#include <cstdint>
#include <memory>

#include "mnp/program_image.hpp"
#include "node/application.hpp"
#include "node/node.hpp"
#include "obs/metrics.hpp"
#include "sim/rng.hpp"

namespace mnp::baselines {

struct NcastConfig {
  /// Source packets per generation (k). 16 keeps the elimination matrix
  /// at mote scale and the worst-case decode cost bounded.
  std::uint8_t generation_size = 16;
  std::size_t payload_bytes = 22;  // same symbol size as MNP packets

  sim::Time tau_low = sim::msec(1000);
  sim::Time tau_high = sim::sec(60);
  int suppression_k = 1;  // consistent advs heard before ours is suppressed

  sim::Time request_delay_max = sim::msec(250);
  int max_request_rounds = 4;
  sim::Time rx_idle_timeout = sim::sec(3);

  sim::Time tx_pump_interval = sim::msec(10);
  /// Coded packets sent beyond the requester's rank deficit. The rateless
  /// hedge: each extra combination is useful to *any* listener that lost
  /// *any* earlier packet.
  int tx_redundancy = 2;

  /// Crash-safe generation journaling (boot::ProgressJournal): rebooted
  /// nodes resume from their completed-generation prefix.
  bool journal_progress = false;
};

/// Expands (gen, coeff_seed) into `k` GF(256) coefficients. Pure: sender
/// and receiver call this with the wire header and must agree byte for
/// byte. Never yields the all-zero vector.
void ncast_expand_coefficients(std::uint16_t gen, std::uint16_t coeff_seed,
                               std::uint8_t k, std::uint8_t* out);

/// Incremental GF(256) Gaussian eliminator for one generation.
///
/// Rows live in one flat buffer of k slots, slot c holding the row whose
/// pivot (first nonzero coefficient) is column c, already normalized to a
/// unit pivot. insert() forward-eliminates the new row against existing
/// pivots and either claims an empty slot (innovative, rank grows) or
/// vanishes (linearly dependent). decode() back-substitutes once rank
/// reaches k, after which source_packet(i) is the i-th original payload.
/// reset() recycles the buffers across generations — steady state never
/// allocates.
class RlncDecoder {
 public:
  /// Prepares for a generation of `k` source packets of `symbol_bytes`
  /// each. Keeps capacity from previous generations.
  void reset(std::uint8_t k, std::size_t symbol_bytes);

  /// Feeds one coded packet (k coefficients + symbol). Returns true when
  /// the packet was innovative (rank grew).
  bool insert(const std::uint8_t* coeff, const std::uint8_t* symbol,
              std::size_t symbol_bytes);

  std::uint8_t rank() const { return rank_; }
  std::uint8_t generation_size() const { return k_; }
  bool complete() const { return k_ > 0 && rank_ == k_; }
  bool decoded() const { return decoded_; }

  /// Back-substitutes to recover the source packets. Requires complete().
  void decode();

  /// Pointer to source packet `i` (symbol_bytes long). Requires decoded().
  const std::uint8_t* source_packet(std::uint8_t i) const;

  /// GF(256) row operations performed so far (decode-work telemetry).
  std::uint64_t row_ops() const { return row_ops_; }

  /// Folds decoder state (rank + pivot occupancy) into an FNV-1a chain
  /// for the determinism auditor.
  std::uint64_t digest_fold(std::uint64_t h) const;

 private:
  std::uint8_t* row(std::uint8_t pivot) { return rows_.data() + pivot * stride_; }
  const std::uint8_t* row(std::uint8_t pivot) const {
    return rows_.data() + pivot * stride_;
  }

  std::uint8_t k_ = 0;
  std::size_t symbol_bytes_ = 0;
  std::size_t stride_ = 0;  // k_ + symbol_bytes_: coefficients then symbol
  std::uint8_t rank_ = 0;
  bool decoded_ = false;
  std::uint64_t row_ops_ = 0;
  std::vector<std::uint8_t> rows_;     // k_ slots of stride_ bytes
  std::vector<std::uint8_t> filled_;   // per slot: pivot row present?
  std::vector<std::uint8_t> scratch_;  // one row, insert() workspace
};

class NcastNode final : public node::Application {
 public:
  enum class State : std::uint8_t { kAdvertise, kDecode, kForward };

  explicit NcastNode(NcastConfig config);
  NcastNode(NcastConfig config, std::shared_ptr<const core::ProgramImage> image);

  void start(node::Node& node) override;
  void on_packet(const net::Packet& pkt) override;
  bool has_complete_image() const override {
    return layout_.units() > 0 && complete_gens_ == layout_.units();
  }
  void reset_for_reboot() override;
  std::uint64_t audit_digest() const override;

  State state() const { return state_; }
  std::uint16_t complete_gens() const { return complete_gens_; }
  std::uint8_t cur_rank() const;
  bool is_base() const { return static_cast<bool>(image_); }

 private:
  void start_round(bool reset_tau);
  void round_fired();
  void handle_adv(const net::Packet& pkt, const net::NcastAdvMsg& msg);
  void handle_request(const net::Packet& pkt, const net::NcastReqMsg& msg);
  void handle_coded(const net::Packet& pkt, const net::NcastCodedMsg& msg);

  void begin_rx(net::NodeId source);
  void send_request();
  void rx_timeout();
  void finish_rx(bool success);

  void begin_tx(std::uint16_t gen, int deficit);
  void pump_tx();
  void send_coded(std::uint16_t gen);

  void generation_completed();
  bool recover_journal();
  void trace_state(State next);
  static const char* state_cname(State s);

  void ensure_decoder();
  void learn_program(std::uint16_t id, std::uint16_t gens, std::uint32_t bytes);

  NcastConfig config_;
  std::shared_ptr<const core::ProgramImage> image_;
  node::Node* node_ = nullptr;
  State state_ = State::kAdvertise;

  // Telemetry handles (ncast.* of DESIGN.md §13), registered at start().
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::MetricsRegistry::Counter m_rounds_;
  obs::MetricsRegistry::Counter m_advs_;
  obs::MetricsRegistry::Counter m_requests_;
  obs::MetricsRegistry::Counter m_coded_sent_;
  obs::MetricsRegistry::Counter m_innovative_;
  obs::MetricsRegistry::Counter m_redundant_;
  obs::MetricsRegistry::Counter m_decode_row_ops_;
  obs::MetricsRegistry::Counter m_gens_decoded_;
  obs::MetricsRegistry::Gauge m_rank_;

  std::uint16_t program_id_ = 0;
  core::ImageLayout layout_;  // units() == 0: program still unknown
  std::uint16_t complete_gens_ = 0;

  // Decoder for the working generation complete_gens_ + 1 (generations
  // complete strictly in order, like Deluge pages).
  RlncDecoder decoder_;
  std::uint16_t decoder_gen_ = 0;  // 0 = decoder not armed
  std::uint64_t last_row_ops_ = 0;

  // Trickle state.
  sim::Time tau_ = 0;
  int heard_consistent_ = 0;
  sim::EventHandle round_timer_;
  sim::EventHandle round_end_timer_;

  // DECODE state.
  net::NodeId rx_source_ = net::kNoNode;
  int request_rounds_ = 0;
  sim::EventHandle request_timer_;
  sim::EventHandle rx_idle_timer_;

  // FORWARD state.
  std::uint16_t tx_gen_ = 0;
  int tx_remaining_ = 0;
  sim::EventHandle tx_timer_;
  sim::Rng coeff_rng_{0};  // forked from the node stream in start()

  // Reusable staging buffers (encoder source packet / decoded writeback).
  std::vector<std::uint8_t> coeff_scratch_;
  std::vector<std::uint8_t> symbol_scratch_;
};

}  // namespace mnp::baselines
