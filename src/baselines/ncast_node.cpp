#include "baselines/ncast_node.hpp"

#include <algorithm>
#include <utility>

#include "sim/audit.hpp"
#include "util/gf256.hpp"

namespace mnp::baselines {

using net::Packet;

// --------------------------------------------------------------------------
// coefficient expansion
// --------------------------------------------------------------------------

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

void ncast_expand_coefficients(std::uint16_t gen, std::uint16_t coeff_seed,
                               std::uint8_t k, std::uint8_t* out) {
  std::uint64_t state = (static_cast<std::uint64_t>(gen) << 16) |
                        static_cast<std::uint64_t>(coeff_seed);
  state ^= 0x243F6A8885A308D3ULL;  // scramble: (0, 0) must not be degenerate
  bool any_nonzero = false;
  std::uint64_t word = 0;
  for (std::uint8_t i = 0; i < k; ++i) {
    if (i % 8 == 0) word = splitmix64(state);
    const std::uint8_t c = static_cast<std::uint8_t>(word >> ((i % 8) * 8));
    out[i] = c;
    any_nonzero = any_nonzero || c != 0;
  }
  // All-zero would code the zero vector (useless on both ends); force one
  // unit coefficient, seed-dependently so senders still spread coverage.
  if (!any_nonzero && k > 0) out[coeff_seed % k] = 1;
}

// --------------------------------------------------------------------------
// RlncDecoder
// --------------------------------------------------------------------------

void RlncDecoder::reset(std::uint8_t k, std::size_t symbol_bytes) {
  k_ = k;
  symbol_bytes_ = symbol_bytes;
  stride_ = k + symbol_bytes;
  rank_ = 0;
  decoded_ = false;
  rows_.assign(static_cast<std::size_t>(k) * stride_, 0);
  filled_.assign(k, 0);
  scratch_.assign(stride_, 0);
}

bool RlncDecoder::insert(const std::uint8_t* coeff, const std::uint8_t* symbol,
                         std::size_t symbol_bytes) {
  if (k_ == 0 || symbol_bytes != symbol_bytes_ || decoded_) return false;
  std::copy(coeff, coeff + k_, scratch_.begin());
  std::copy(symbol, symbol + symbol_bytes_,
            scratch_.begin() + static_cast<std::ptrdiff_t>(k_));
  for (std::uint8_t col = 0; col < k_; ++col) {
    const std::uint8_t c = scratch_[col];
    if (c == 0) continue;
    if (filled_[col]) {
      // Eliminate against the unit-pivot row: scratch ^= c * row. The
      // leading coefficient cancels exactly (c XOR c*1 == 0), so the
      // walk continues at the next column.
      util::gf256::addmul_row(scratch_.data() + col, row(col) + col,
                              stride_ - col, c);
      ++row_ops_;
      continue;
    }
    // First hit on an empty pivot slot: normalize the leading coefficient
    // to 1 and claim it. Columns before `col` are already zero, and the
    // slot's prefix is zero from reset(), so copying the suffix suffices.
    util::gf256::mul_row(scratch_.data() + col, stride_ - col,
                         util::gf256::gf_inv(c));
    ++row_ops_;
    std::copy(scratch_.begin() + col, scratch_.end(),
              rows_.begin() + static_cast<std::ptrdiff_t>(
                                  static_cast<std::size_t>(col) * stride_ + col));
    filled_[col] = 1;
    ++rank_;
    return true;
  }
  return false;  // linearly dependent: eliminated to the zero row
}

void RlncDecoder::decode() {
  if (!complete() || decoded_) return;
  // Back-substitution, last pivot first: clearing column `col` from every
  // earlier row leaves the coefficient block the identity, at which point
  // each row's symbol suffix IS the source packet.
  for (std::uint8_t col = k_; col-- > 1;) {
    const std::uint8_t* pivot = row(col);
    for (std::uint8_t r = 0; r < col; ++r) {
      const std::uint8_t c = row(r)[col];
      if (c == 0) continue;
      util::gf256::addmul_row(row(r) + col, pivot + col, stride_ - col, c);
      ++row_ops_;
    }
  }
  decoded_ = true;
}

const std::uint8_t* RlncDecoder::source_packet(std::uint8_t i) const {
  return row(i) + k_;
}

std::uint64_t RlncDecoder::digest_fold(std::uint64_t h) const {
  h = sim::fnv1a(h, k_);
  h = sim::fnv1a(h, rank_);
  h = sim::fnv1a(h, static_cast<std::uint64_t>(decoded_));
  for (std::uint8_t i = 0; i < k_; ++i) h = sim::fnv1a(h, filled_[i]);
  return h;
}

// --------------------------------------------------------------------------
// NcastNode
// --------------------------------------------------------------------------

namespace {

constexpr TrickleNames kNames{"ncast.rounds",
                              "ncast.advs_sent",
                              "ncast.requests_sent",
                              {"Advertise", "Decode", "Forward"}};

}  // namespace

NcastNode::NcastNode(const NcastConfig& config,
                     std::shared_ptr<const core::ProgramImage> image)
    : TrickleNode(config, kNames, config.generation_size, config.payload_bytes,
                  std::move(image)),
      config_(config) {}

void NcastNode::on_start() {
  // Coefficient seeds come from a forked stream: drawing them never
  // perturbs the node's timer jitter, so NCast runs stay trace-comparable
  // with the other baselines under the same root seed.
  coeff_rng_ = node_->rng().fork(0x4E43u);  // "NC"
  m_coded_sent_ =
      metrics_->register_counter("ncast.coded_sent", obs::Unit::kCount, true);
  m_innovative_ =
      metrics_->register_counter("ncast.innovative", obs::Unit::kCount, true);
  m_redundant_ =
      metrics_->register_counter("ncast.redundant", obs::Unit::kCount, true);
  m_decode_row_ops_ = metrics_->register_counter("ncast.decode_row_ops",
                                                 obs::Unit::kCount, true);
  m_gens_decoded_ = metrics_->register_counter("ncast.generations_decoded",
                                               obs::Unit::kCount, true);
  m_rank_ = metrics_->register_gauge("ncast.rank", obs::Unit::kCount, true);
}

void NcastNode::reset_data() {
  decoder_.reset(0, 0);
  decoder_gen_ = 0;
  tx_remaining_ = 0;
}

std::uint64_t NcastNode::audit_digest() const {
  std::uint64_t h = fold_session(fold_head(sim::kFnvOffset));
  h = sim::fnv1a(h, static_cast<std::uint64_t>(tx_remaining_));
  h = sim::fnv1a(h, decoder_gen_);
  return decoder_.digest_fold(h);
}

std::uint8_t NcastNode::cur_rank() const {
  if (decoder_gen_ != 0 && decoder_gen_ == complete_ + 1) {
    return decoder_.rank();
  }
  return 0;
}

Packet NcastNode::summary() const {
  net::NcastAdvMsg adv;
  adv.program_id = version_;
  adv.program_bytes = layout_.bytes();
  adv.total_gens = layout_.units();
  adv.complete_gens = complete_;
  adv.gen_size = config_.generation_size;
  adv.cur_rank = cur_rank();
  Packet pkt;
  pkt.payload = adv;
  return pkt;
}

Packet NcastNode::request() const {
  net::NcastReqMsg req;
  req.dest = rx_source_;
  req.gen = static_cast<std::uint16_t>(complete_ + 1);
  req.rank = cur_rank();
  Packet pkt;
  pkt.payload = req;
  return pkt;
}

void NcastNode::prepare_rx(std::uint16_t gen) {
  if (decoder_gen_ == gen) return;
  decoder_.reset(static_cast<std::uint8_t>(layout_.packets_in(gen)),
                 config_.payload_bytes);
  decoder_gen_ = gen;
}

void NcastNode::prepare_tx(std::uint16_t /*gen*/) { tx_remaining_ = 0; }

// One fresh combination of generation tx_unit_, recoded from the image or
// from the decoded bytes in EEPROM.
bool NcastNode::send_next() {
  if (tx_remaining_ <= 0) return false;
  --tx_remaining_;
  const std::uint16_t gen = tx_unit_;
  const std::uint16_t k = layout_.packets_in(gen);
  if (k == 0) return true;
  coeff_scratch_.resize(k);
  const auto seed =
      static_cast<std::uint16_t>(coeff_rng_.uniform_int(0, 0xFFFF));
  ncast_expand_coefficients(gen, seed, static_cast<std::uint8_t>(k),
                            coeff_scratch_.data());
  net::NcastCodedMsg msg;
  msg.gen = gen;
  msg.coeff_seed = seed;
  // Accumulate the combination in a pooled buffer: short tail packets add
  // fewer bytes and leave the zero padding, so coded symbols are always
  // full length and the decoder never sees ragged rows.
  msg.payload = node_->frame_pool().acquire_payload();
  msg.payload.assign(config_.payload_bytes, 0);
  for (std::uint16_t i = 0; i < k; ++i) {
    const std::uint8_t c = coeff_scratch_[i];
    if (c == 0) continue;
    const std::size_t len = layout_.payload_len(gen, i);
    if (len == 0) continue;
    if (image_) {
      util::gf256::addmul_row(msg.payload.data(),
                              image_->bytes().data() + layout_.offset(gen, i),
                              len, c);
    } else {
      node_->eeprom().read_into(layout_.offset(gen, i), len, symbol_scratch_);
      util::gf256::addmul_row(msg.payload.data(), symbol_scratch_.data(), len,
                              c);
    }
  }
  Packet pkt;
  pkt.payload = std::move(msg);
  if (node_->send(std::move(pkt))) {
    metrics_->add(m_coded_sent_, node_->id());
  }
  return true;
}

// --------------------------------------------------------------------------
// coded reception (any non-Forward state: every combination is hoarded)
// --------------------------------------------------------------------------

void NcastNode::commit_generation() {
  decoder_.decode();
  // Back-substitution work lands on the same counter as elimination.
  metrics_->add(m_decode_row_ops_, node_->id(),
                decoder_.row_ops() - last_row_ops_);
  last_row_ops_ = decoder_.row_ops();
  const std::uint16_t gen = decoder_gen_;
  const std::uint8_t k = decoder_.generation_size();
  for (std::uint8_t i = 0; i < k; ++i) {
    const std::size_t len = layout_.payload_len(gen, i);
    if (len == 0) break;
    const std::uint8_t* src = decoder_.source_packet(i);
    symbol_scratch_.assign(src, src + len);
    node_->eeprom().write(layout_.offset(gen, i), symbol_scratch_);
  }
  decoder_gen_ = 0;  // recycled on demand for the next generation
  metrics_->add(m_gens_decoded_, node_->id());
  metrics_->set(m_rank_, node_->id(), 0.0);
}

void NcastNode::handle_coded(const net::NcastCodedMsg& msg) {
  if (!accepts_data(msg.gen)) return;
  if (msg.payload.size() != config_.payload_bytes) return;
  prepare_rx(msg.gen);
  const std::uint8_t k = decoder_.generation_size();
  if (k == 0) return;
  coeff_scratch_.resize(k);
  ncast_expand_coefficients(msg.gen, msg.coeff_seed, k, coeff_scratch_.data());
  const bool innovative =
      decoder_.insert(coeff_scratch_.data(), msg.payload.data(),
                      msg.payload.size());
  metrics_->add(innovative ? m_innovative_ : m_redundant_, node_->id());
  metrics_->add(m_decode_row_ops_, node_->id(),
                decoder_.row_ops() - last_row_ops_);
  metrics_->set(m_rank_, node_->id(), decoder_.rank());
  last_row_ops_ = decoder_.row_ops();
  data_heard();
  if (decoder_.complete()) {
    commit_generation();
    complete_unit();
  }
}

void NcastNode::on_packet(const Packet& pkt) {
  if (const auto* adv = pkt.as<net::NcastAdvMsg>()) {
    learn_program(adv->program_id, adv->total_gens, adv->program_bytes);
    // Rank-based suppression: a neighbor is consistent only when it
    // matches both the complete-generation count AND the working rank — a
    // neighbor mid-decode still needs the network talking. One that is
    // rank-skewed on the same generation resets tau without a request:
    // partial rank is never served, only complete generations recode.
    heard_summary(pkt.src, adv->complete_gens,
                  adv->complete_gens == complete_ && adv->cur_rank == cur_rank());
  } else if (const auto* req = pkt.as<net::NcastReqMsg>()) {
    if (!serve_request(req->gen, req->dest)) return;
    // Stretch the burst to cover this requester's deficit too
    // (combinations serve every listener at once).
    const int deficit =
        std::max(1, static_cast<int>(layout_.packets_in(req->gen)) - req->rank);
    tx_remaining_ = std::max(tx_remaining_, deficit + config_.tx_redundancy);
  } else if (const auto* coded = pkt.as<net::NcastCodedMsg>()) {
    handle_coded(*coded);
  }
}

}  // namespace mnp::baselines
