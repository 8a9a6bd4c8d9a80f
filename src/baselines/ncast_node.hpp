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
// Shape of the protocol: Deluge's Trickle control plane (trickle_node.hpp),
// shared line for line, so the comparison isolates coding, not timer
// tuning. Units are generations; the control plane's states are named
// ADVERTISE, DECODE and FORWARD here.
//  * ADVERTISE: advertisements carry (complete generations, current
//    decoder rank). A neighbor is consistent when both match; rank-only
//    differences reset tau without triggering a request, because only
//    complete generations are served.
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
#include <vector>

#include "baselines/trickle_node.hpp"
#include "sim/rng.hpp"

namespace mnp::baselines {

struct NcastConfig : TrickleConfig {
  /// Source packets per generation (k). 16 keeps the elimination matrix
  /// at mote scale and the worst-case decode cost bounded.
  std::uint8_t generation_size = 16;
  std::size_t payload_bytes = 22;  // same symbol size as MNP packets
  /// Coded packets sent beyond the requester's rank deficit. The rateless
  /// hedge: each extra combination is useful to *any* listener that lost
  /// *any* earlier packet.
  int tx_redundancy = 2;
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

class NcastNode final : public TrickleNode {
 public:
  explicit NcastNode(const NcastConfig& config,
                     std::shared_ptr<const core::ProgramImage> image = nullptr);

  void on_packet(const net::Packet& pkt) override;
  std::uint64_t audit_digest() const override;

  std::uint16_t complete_gens() const { return complete_; }
  std::uint8_t cur_rank() const;

 private:
  void on_start() override;
  net::Packet summary() const override;
  net::Packet request() const override;
  void prepare_rx(std::uint16_t gen) override;
  void prepare_tx(std::uint16_t gen) override;
  bool send_next() override;
  void reset_data() override;

  void handle_coded(const net::NcastCodedMsg& msg);
  void commit_generation();

  NcastConfig config_;

  // Telemetry handles (ncast.* of DESIGN.md §13) beyond the control
  // plane's rounds, advertisements and requests, registered at start().
  obs::MetricsRegistry::Counter m_coded_sent_;
  obs::MetricsRegistry::Counter m_innovative_;
  obs::MetricsRegistry::Counter m_redundant_;
  obs::MetricsRegistry::Counter m_decode_row_ops_;
  obs::MetricsRegistry::Counter m_gens_decoded_;
  obs::MetricsRegistry::Gauge m_rank_;

  // Decoder for the working generation complete_ + 1 (generations
  // complete strictly in order, like Deluge pages).
  RlncDecoder decoder_;
  std::uint16_t decoder_gen_ = 0;  // 0 = decoder not armed
  std::uint64_t last_row_ops_ = 0;

  // FORWARD state: coded packets still to send for generation tx_unit_.
  int tx_remaining_ = 0;
  sim::Rng coeff_rng_{0};  // forked from the node stream in start()

  // Reusable staging buffers (encoder source packet / decoded writeback).
  std::vector<std::uint8_t> coeff_scratch_;
  std::vector<std::uint8_t> symbol_scratch_;
};

}  // namespace mnp::baselines
