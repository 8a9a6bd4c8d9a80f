#include "net/tdma_mac.hpp"

#include <cmath>
#include <utility>

#include "net/channel.hpp"

namespace mnp::net {

std::uint32_t TdmaMac::tile_for_grid(double spacing_ft, double range_ft,
                                     double interference_factor) {
  if (spacing_ft <= 0.0) return 2;
  // A listener hears a transmitter within range*interference_factor, so a
  // listener midway between two same-slot transmitters is deaf to neither
  // unless their separation strictly exceeds twice that reach.
  const double reach = 2.0 * range_ft * interference_factor;
  const auto m = static_cast<std::uint32_t>(std::floor(reach / spacing_ft)) + 1;
  return m < 2 ? 2 : m;
}

std::uint32_t TdmaMac::slot_for(std::size_t row, std::size_t col,
                                std::uint32_t m) {
  return static_cast<std::uint32_t>((row % m) * m + (col % m));
}

TdmaMac::TdmaMac(Radio& radio, sim::Scheduler& scheduler, Params params)
    : radio_(radio),
      scheduler_(scheduler),
      params_(params),
      queue_(params.queue_capacity) {
  if (params_.frame_slots == 0) params_.frame_slots = 1;
  params_.my_slot %= params_.frame_slots;
  radio_.set_send_done_handler([this] { transmission_finished(); });
}

void TdmaMac::attach_metrics(obs::MetricsRegistry& registry) {
  metrics_ = &registry;
  m_sent_ = registry.register_counter("mac.tx", obs::Unit::kCount, true);
  m_dropped_ =
      registry.register_counter("mac.dropped", obs::Unit::kCount, true);
}

bool TdmaMac::send(FramePtr frame) {
  if (!radio_.is_on()) {
    metrics_->add(m_dropped_, radio_.id());
    return false;
  }
  if (queue_.full()) {
    metrics_->add(m_dropped_, radio_.id());
    return false;
  }
  queue_.push(std::move(frame));
  if (!slot_timer_.pending()) arm_next_slot();
  return true;
}

bool TdmaMac::send(Packet pkt) {
  return send(radio_.channel().frame_pool().adopt(std::move(pkt)));
}

void TdmaMac::flush() {
  queue_.clear();
  slot_timer_.cancel();
}

void TdmaMac::arm_next_slot() {
  // Delay until the start of our next owned slot (frame-aligned to the
  // global clock; in SS-TDMA this alignment comes from the shared slotted
  // timeline that self-stabilization establishes).
  const sim::Time now = scheduler_.now();
  const sim::Time frame = frame_duration();
  const sim::Time slot_start =
      static_cast<sim::Time>(params_.my_slot) * params_.slot_duration;
  const sim::Time into_frame = now % frame;
  sim::Time wait = slot_start - into_frame;
  if (wait <= 0) wait += frame;
  slot_timer_ = scheduler_.schedule_after(wait, [this] { slot_fired(); });
}

void TdmaMac::slot_fired() {
  if (queue_.empty()) return;
  if (!radio_.is_listening()) {
    // The protocol turned the radio off after queueing (e.g. went to
    // sleep); drop the silenced traffic like the CSMA MAC does.
    flush();
    return;
  }
  FramePtr frame = queue_.pop();
  last_sent_ = frame;  // refcount bump, not a Packet copy
  in_flight_ = true;
  if (!radio_.start_transmission(std::move(frame))) {
    in_flight_ = false;
    metrics_->add(m_dropped_, radio_.id());
  }
  if (!queue_.empty()) arm_next_slot();
}

void TdmaMac::transmission_finished() {
  if (!in_flight_) return;
  in_flight_ = false;
  metrics_->add(m_sent_, radio_.id());
  if (send_done_) send_done_(*last_sent_);
  last_sent_.reset();
  if (!queue_.empty() && !slot_timer_.pending()) arm_next_slot();
}

}  // namespace mnp::net
