#include "net/csma_mac.hpp"

#include <utility>

#include "net/channel.hpp"

namespace mnp::net {

CsmaMac::CsmaMac(Radio& radio, sim::Scheduler& scheduler, sim::Rng rng,
                 Params params)
    : radio_(radio),
      scheduler_(scheduler),
      rng_(std::move(rng)),
      params_(params),
      queue_(params.queue_capacity) {
  radio_.set_send_done_handler([this] { transmission_finished(); });
}

CsmaMac::CsmaMac(Radio& radio, sim::Scheduler& scheduler, sim::Rng rng)
    : CsmaMac(radio, scheduler, std::move(rng), Params{}) {}

void CsmaMac::attach_metrics(obs::MetricsRegistry& registry) {
  metrics_ = &registry;
  m_sent_ = registry.register_counter("mac.tx", obs::Unit::kCount, true);
  m_dropped_ =
      registry.register_counter("mac.dropped", obs::Unit::kCount, true);
  m_backoffs_ = registry.register_counter("mac.congestion_backoffs",
                                          obs::Unit::kCount, true);
}

bool CsmaMac::send(FramePtr frame) {
  if (!radio_.is_on()) {
    metrics_->add(m_dropped_, radio_.id());
    return false;
  }
  if (queue_.full()) {
    metrics_->add(m_dropped_, radio_.id());
    return false;
  }
  queue_.push(std::move(frame));
  if (!in_flight_ && !backoff_.pending()) arm_backoff(/*congestion=*/false);
  return true;
}

bool CsmaMac::send(Packet pkt) {
  return send(radio_.channel().frame_pool().adopt(std::move(pkt)));
}

void CsmaMac::flush() {
  queue_.clear();
  backoff_.cancel();
  retries_ = 0;
}

void CsmaMac::arm_backoff(bool congestion) {
  const sim::Time lo = congestion ? params_.congestion_backoff_min
                                  : params_.initial_backoff_min;
  const sim::Time hi = congestion ? params_.congestion_backoff_max
                                  : params_.initial_backoff_max;
  const sim::Time delay = rng_.uniform_int(lo, hi);
  backoff_ = scheduler_.schedule_after(delay, [this] { backoff_expired(); });
}

void CsmaMac::backoff_expired() {
  if (queue_.empty()) return;
  if (!radio_.is_listening()) {
    // Radio went off (or is mid-transmission) while we were backing off;
    // drop everything — the protocol deliberately silenced this node.
    flush();
    return;
  }
  // Carrier sense through the radio's channel: ask via transmission
  // attempt only when clear.
  if (radio_.is_listening() && carrier_clear()) {
    retries_ = 0;
    FramePtr frame = queue_.pop();
    in_flight_ = true;
    last_sent_ = frame;  // refcount bump, not a Packet copy
    if (!radio_.start_transmission(std::move(frame))) {
      in_flight_ = false;
      metrics_->add(m_dropped_, radio_.id());
      if (!queue_.empty()) arm_backoff(false);
    }
    return;
  }
  metrics_->add(m_backoffs_, radio_.id());
  ++retries_;
  if (params_.max_congestion_retries != 0 &&
      retries_ > params_.max_congestion_retries) {
    metrics_->add(m_dropped_, radio_.id());
    queue_.pop();
    retries_ = 0;
    if (queue_.empty()) return;
  }
  arm_backoff(/*congestion=*/true);
}

bool CsmaMac::carrier_clear() const { return !radio_.senses_carrier(); }

void CsmaMac::transmission_finished() {
  if (!in_flight_) return;  // send-done for a transmission we didn't start
  in_flight_ = false;
  metrics_->add(m_sent_, radio_.id());
  if (send_done_) send_done_(*last_sent_);
  last_sent_.reset();
  if (!queue_.empty()) {
    scheduler_.post_after(params_.inter_packet_gap, [this] {
      if (!in_flight_ && !queue_.empty() && !backoff_.pending()) {
        arm_backoff(false);
      }
    });
  }
}

}  // namespace mnp::net
