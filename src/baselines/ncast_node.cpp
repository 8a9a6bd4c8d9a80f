#include "baselines/ncast_node.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "boot/progress_journal.hpp"
#include "node/stats.hpp"
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

NcastNode::NcastNode(NcastConfig config) : config_(config) {}

NcastNode::NcastNode(NcastConfig config,
                     std::shared_ptr<const core::ProgramImage> image)
    : config_(config), image_(std::move(image)) {
  assert(image_);
  assert(image_->packets_per_segment() == config_.generation_size);
  assert(image_->payload_bytes() == config_.payload_bytes);
}

void NcastNode::start(node::Node& node) {
  node_ = &node;
  // Coefficient seeds come from a forked stream: drawing them never
  // perturbs the node's timer jitter, so NCast runs stay trace-comparable
  // with the other baselines under the same root seed.
  coeff_rng_ = node_->rng().fork(0x4E43u);  // "NC"
  metrics_ = &node_->stats().metrics();
  m_rounds_ =
      metrics_->register_counter("ncast.rounds", obs::Unit::kCount, true);
  m_advs_ =
      metrics_->register_counter("ncast.advs_sent", obs::Unit::kCount, true);
  m_requests_ = metrics_->register_counter("ncast.requests_sent",
                                           obs::Unit::kCount, true);
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
  node_->radio_on();  // like Deluge: always-on radio, no sleep schedule
  if (image_) {
    program_id_ = image_->id();
    layout_ = image_->layout();
    complete_gens_ = layout_.units();
    node_->stats().on_completed(node_->id(), node_->now());
  } else if (recover_journal() && has_complete_image()) {
    node_->stats().on_completed(node_->id(), node_->now());
  }
  start_round(/*reset_tau=*/true);
}

bool NcastNode::recover_journal() {
  if (!config_.journal_progress) return false;
  const auto rec = boot::ProgressJournal(node_->eeprom()).recover();
  if (!rec) return false;
  program_id_ = rec->program_id;
  layout_ = core::ImageLayout::of_bytes(
      rec->program_bytes, config_.generation_size, config_.payload_bytes);
  complete_gens_ = rec->prefix;
  return complete_gens_ > 0;
}

void NcastNode::reset_for_reboot() {
  round_timer_.cancel();
  round_end_timer_.cancel();
  request_timer_.cancel();
  rx_idle_timer_.cancel();
  tx_timer_.cancel();
  if (state_ != State::kAdvertise) {
    state_ = State::kAdvertise;
  }
  program_id_ = 0;
  layout_ = core::ImageLayout{};
  complete_gens_ = 0;
  decoder_.reset(0, 0);
  decoder_gen_ = 0;
  tau_ = 0;
  heard_consistent_ = 0;
  rx_source_ = net::kNoNode;
  request_rounds_ = 0;
  tx_gen_ = 0;
  tx_remaining_ = 0;
}

std::uint64_t NcastNode::audit_digest() const {
  std::uint64_t h = sim::kFnvOffset;
  h = sim::fnv1a(h, static_cast<std::uint64_t>(state_));
  h = sim::fnv1a(h, program_id_);
  h = sim::fnv1a(h, layout_.units());
  h = sim::fnv1a(h, complete_gens_);
  h = sim::fnv1a(h, static_cast<std::uint64_t>(tau_));
  h = sim::fnv1a(h, static_cast<std::uint64_t>(heard_consistent_));
  h = sim::fnv1a(h, rx_source_);
  h = sim::fnv1a(h, static_cast<std::uint64_t>(request_rounds_));
  h = sim::fnv1a(h, tx_gen_);
  h = sim::fnv1a(h, static_cast<std::uint64_t>(tx_remaining_));
  h = sim::fnv1a(h, decoder_gen_);
  h = decoder_.digest_fold(h);
  return h;
}

std::uint8_t NcastNode::cur_rank() const {
  if (decoder_gen_ != 0 && decoder_gen_ == complete_gens_ + 1) {
    return decoder_.rank();
  }
  return 0;
}

// --------------------------------------------------------------------------
// program geometry
// --------------------------------------------------------------------------

void NcastNode::learn_program(std::uint16_t id, std::uint16_t gens,
                              std::uint32_t bytes) {
  if (layout_.units() == 0 && gens > 0) {
    program_id_ = id;
    layout_ = core::ImageLayout(bytes, config_.generation_size,
                                config_.payload_bytes, gens);
    node_->meter().mark_first_advertisement(node_->now());
  }
}

void NcastNode::ensure_decoder() {
  const std::uint16_t cur = static_cast<std::uint16_t>(complete_gens_ + 1);
  if (decoder_gen_ == cur) return;
  decoder_.reset(static_cast<std::uint8_t>(layout_.packets_in(cur)),
                 config_.payload_bytes);
  decoder_gen_ = cur;
}

// --------------------------------------------------------------------------
// trace
// --------------------------------------------------------------------------

const char* NcastNode::state_cname(State s) {
  switch (s) {
    case State::kAdvertise: return "Advertise";
    case State::kDecode: return "Decode";
    case State::kForward: return "Forward";
  }
  return "?";
}

void NcastNode::trace_state(State next) {
  if (next == state_) return;
  if (auto* log = node_->stats().event_log()) {
    log->record_transition(node_->now(), node_->id(), state_cname(state_),
                           state_cname(next));
  }
}

// --------------------------------------------------------------------------
// ADVERTISE (Trickle)
// --------------------------------------------------------------------------

void NcastNode::start_round(bool reset_tau) {
  round_timer_.cancel();
  round_end_timer_.cancel();
  if (reset_tau || tau_ == 0) {
    tau_ = config_.tau_low;
  } else {
    tau_ = std::min(tau_ * 2, config_.tau_high);
  }
  heard_consistent_ = 0;
  metrics_->add(m_rounds_, node_->id());
  const sim::Time t = node_->rng().uniform_int(tau_ / 2, tau_);
  round_timer_ = node_->schedule(t, [this] { round_fired(); });
  round_end_timer_ = node_->schedule(tau_, [this] {
    if (state_ == State::kAdvertise) start_round(/*reset_tau=*/false);
  });
}

void NcastNode::round_fired() {
  if (state_ != State::kAdvertise) return;
  if (heard_consistent_ >= config_.suppression_k) return;  // suppressed
  Packet pkt;
  net::NcastAdvMsg adv;
  adv.program_id = program_id_;
  adv.program_bytes = layout_.bytes();
  adv.total_gens = layout_.units();
  adv.complete_gens = complete_gens_;
  adv.gen_size = config_.generation_size;
  adv.cur_rank = cur_rank();
  pkt.payload = adv;
  if (node_->send(std::move(pkt))) {
    metrics_->add(m_advs_, node_->id());
  }
}

void NcastNode::handle_adv(const Packet& pkt, const net::NcastAdvMsg& msg) {
  learn_program(msg.program_id, msg.total_gens, msg.program_bytes);
  // Rank-based suppression: a neighbor is consistent only when it matches
  // both the complete-generation count AND the working rank — a neighbor
  // mid-decode still needs the network talking.
  if (msg.complete_gens == complete_gens_ && msg.cur_rank == cur_rank()) {
    ++heard_consistent_;
    return;
  }
  if (state_ == State::kAdvertise) {
    if (msg.complete_gens > complete_gens_) {
      begin_rx(pkt.src);
    } else {
      // They are behind (fewer generations, or rank-skewed on the same
      // one): reset tau so our advertisement reaches them soon. Partial
      // rank is never served directly — only complete generations recode.
      start_round(/*reset_tau=*/true);
    }
  }
}

// --------------------------------------------------------------------------
// DECODE
// --------------------------------------------------------------------------

void NcastNode::begin_rx(net::NodeId source) {
  trace_state(State::kDecode);
  state_ = State::kDecode;
  round_timer_.cancel();
  round_end_timer_.cancel();
  rx_source_ = source;
  request_rounds_ = 0;
  ensure_decoder();
  const sim::Time delay = node_->rng().uniform_int(0, config_.request_delay_max);
  request_timer_ = node_->schedule(delay, [this] { send_request(); });
}

void NcastNode::send_request() {
  if (state_ != State::kDecode) return;
  if (request_rounds_ >= config_.max_request_rounds) {
    finish_rx(/*success=*/false);
    return;
  }
  ++request_rounds_;
  Packet pkt;
  net::NcastReqMsg req;
  req.dest = rx_source_;
  req.gen = static_cast<std::uint16_t>(complete_gens_ + 1);
  req.rank = cur_rank();
  pkt.payload = req;
  if (node_->send(std::move(pkt))) {
    metrics_->add(m_requests_, node_->id());
  }
  rx_idle_timer_.cancel();
  rx_idle_timer_ =
      node_->schedule(config_.rx_idle_timeout, [this] { rx_timeout(); });
}

void NcastNode::rx_timeout() {
  if (state_ != State::kDecode) return;
  send_request();  // retry (bounded by max_request_rounds)
}

void NcastNode::finish_rx(bool success) {
  request_timer_.cancel();
  rx_idle_timer_.cancel();
  rx_source_ = net::kNoNode;
  trace_state(State::kAdvertise);
  state_ = State::kAdvertise;
  start_round(/*reset_tau=*/!success ? false : true);
}

// --------------------------------------------------------------------------
// FORWARD
// --------------------------------------------------------------------------

void NcastNode::handle_request(const Packet& pkt, const net::NcastReqMsg& msg) {
  (void)pkt;
  if (msg.gen == 0 || msg.gen > complete_gens_) return;  // can't serve
  const int deficit =
      std::max(1, static_cast<int>(layout_.packets_in(msg.gen)) - msg.rank);
  if (state_ == State::kForward) {
    if (msg.gen == tx_gen_) {
      // Another requester for the burst in flight: stretch it to cover
      // the larger deficit (combinations serve every listener at once).
      tx_remaining_ = std::max(tx_remaining_, deficit + config_.tx_redundancy);
    }
    return;
  }
  if (state_ == State::kDecode && msg.dest != node_->id()) return;
  if (msg.dest != node_->id()) return;
  begin_tx(msg.gen, deficit);
}

void NcastNode::begin_tx(std::uint16_t gen, int deficit) {
  request_timer_.cancel();
  rx_idle_timer_.cancel();
  round_timer_.cancel();
  round_end_timer_.cancel();
  trace_state(State::kForward);
  state_ = State::kForward;
  node_->stats().on_became_sender(node_->id(), node_->now());
  tx_gen_ = gen;
  tx_remaining_ = deficit + config_.tx_redundancy;
  tx_timer_ = node_->schedule(config_.tx_pump_interval, [this] { pump_tx(); });
}

void NcastNode::pump_tx() {
  if (state_ != State::kForward) return;
  while (node_->mac().queue_depth() < 2 && tx_remaining_ > 0) {
    send_coded(tx_gen_);
    --tx_remaining_;
  }
  if (tx_remaining_ == 0 && node_->mac().idle()) {
    trace_state(State::kAdvertise);
    state_ = State::kAdvertise;
    start_round(/*reset_tau=*/true);
    return;
  }
  tx_timer_ = node_->schedule(config_.tx_pump_interval, [this] { pump_tx(); });
}

void NcastNode::send_coded(std::uint16_t gen) {
  const std::uint16_t k = layout_.packets_in(gen);
  if (k == 0) return;
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
}

// --------------------------------------------------------------------------
// coded reception (any non-Forward state: every combination is hoarded)
// --------------------------------------------------------------------------

void NcastNode::generation_completed() {
  decoder_.decode();
  const std::uint16_t gen = static_cast<std::uint16_t>(complete_gens_ + 1);
  const std::uint8_t k = decoder_.generation_size();
  for (std::uint8_t i = 0; i < k; ++i) {
    const std::size_t len = layout_.payload_len(gen, i);
    if (len == 0) break;
    const std::uint8_t* src = decoder_.source_packet(i);
    symbol_scratch_.assign(src, src + len);
    node_->eeprom().write(layout_.offset(gen, i), symbol_scratch_);
  }
  ++complete_gens_;
  decoder_gen_ = 0;  // recycled on demand for the next generation
  metrics_->add(m_gens_decoded_, node_->id());
  metrics_->set(m_rank_, node_->id(), 0.0);
  if (config_.journal_progress) {
    boot::ProgressJournal(node_->eeprom())
        .append(program_id_, layout_.bytes(), complete_gens_);
  }
  node_->stats().on_segment_completed(node_->id(), complete_gens_, node_->now());
  if (has_complete_image()) {
    node_->stats().on_completed(node_->id(), node_->now());
  }
  if (state_ == State::kDecode) {
    node_->stats().on_parent_set(node_->id(), rx_source_);
    finish_rx(/*success=*/true);
  } else {
    start_round(/*reset_tau=*/true);
  }
}

void NcastNode::handle_coded(const Packet& pkt, const net::NcastCodedMsg& msg) {
  (void)pkt;
  if (layout_.units() == 0) return;
  if (state_ == State::kForward) return;  // half-duplex sender
  if (msg.gen != complete_gens_ + 1) {
    // A generation we can't use yet (or already hold): evidence the
    // network is busy; suppress our own advertisement this round.
    heard_consistent_ = config_.suppression_k;
    return;
  }
  if (msg.payload.size() != config_.payload_bytes) return;
  ensure_decoder();
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
  if (state_ == State::kDecode) {
    rx_idle_timer_.cancel();
    rx_idle_timer_ =
        node_->schedule(config_.rx_idle_timeout, [this] { rx_timeout(); });
  }
  if (decoder_.complete()) {
    generation_completed();
    // decode() back-substitution work lands on the same counter.
    metrics_->add(m_decode_row_ops_, node_->id(),
                  decoder_.row_ops() - last_row_ops_);
    last_row_ops_ = decoder_.row_ops();
  }
}

void NcastNode::on_packet(const Packet& pkt) {
  if (const auto* adv = pkt.as<net::NcastAdvMsg>()) {
    handle_adv(pkt, *adv);
  } else if (const auto* req = pkt.as<net::NcastReqMsg>()) {
    handle_request(pkt, *req);
  } else if (const auto* coded = pkt.as<net::NcastCodedMsg>()) {
    handle_coded(pkt, *coded);
  }
}

}  // namespace mnp::baselines
