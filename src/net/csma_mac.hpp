// CSMA MAC with random backoff — the TinyOS B-MAC-style medium access MNP
// runs over.
//
// Outgoing packets enter a FIFO queue. Before each transmission the MAC
// samples an initial backoff; when the backoff expires it senses the
// carrier. Busy => new (congestion) backoff; idle => transmit. There is no
// RTS/CTS and no ack — exactly the TinyOS broadcast MAC, which is why the
// hidden terminal problem exists for the protocols above it.
#pragma once

#include <cstdint>
#include <functional>

#include "net/mac.hpp"
#include "net/radio.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace mnp::net {

class CsmaMac final : public Mac {
 public:
  struct Params {
    sim::Time initial_backoff_min = sim::usec(400);
    sim::Time initial_backoff_max = sim::msec(13);
    sim::Time congestion_backoff_min = sim::usec(400);
    sim::Time congestion_backoff_max = sim::msec(26);
    /// Gap inserted after a completed transmission before the next queued
    /// packet starts its backoff (models packet turnaround in TinyOS).
    sim::Time inter_packet_gap = sim::msec(4);
    std::size_t queue_capacity = 24;
    /// Give up after this many consecutive busy carrier samples (0 =
    /// retry forever, which matches TinyOS's behaviour for broadcast).
    std::size_t max_congestion_retries = 0;
  };

  CsmaMac(Radio& radio, sim::Scheduler& scheduler, sim::Rng rng,
          Params params);
  /// Default-parameter convenience overload.
  CsmaMac(Radio& radio, sim::Scheduler& scheduler, sim::Rng rng);

  /// Enqueues a shared frame for transmission. Returns false (packet
  /// dropped) when the queue is full or the radio is off.
  bool send(FramePtr frame) override;
  bool send(Packet pkt) override;

  /// Drops all queued packets and cancels any pending backoff. Called when
  /// a protocol leaves a state whose queued traffic is now meaningless
  /// (e.g. MNP going to sleep).
  void flush() override;

  /// Registers mac.* counters (per-node, keyed by this MAC's radio id) in
  /// `registry`; the statistics below read this node's cells. Must precede
  /// the first send.
  void attach_metrics(obs::MetricsRegistry& registry) override;

  std::size_t queue_depth() const override { return queue_.size(); }
  bool idle() const override { return queue_.empty() && !in_flight_; }
  std::uint64_t packets_sent() const override {
    return metrics_->at(m_sent_, radio_.id());
  }
  std::uint64_t packets_dropped() const override {
    return metrics_->at(m_dropped_, radio_.id());
  }
  std::uint64_t congestion_backoffs() const {
    return metrics_->at(m_backoffs_, radio_.id());
  }

  /// Invoked after each successful hand-off to the radio completes.
  void set_send_done(std::function<void(const Packet&)> cb) override {
    send_done_ = std::move(cb);
  }

 private:
  void arm_backoff(bool congestion);
  void backoff_expired();
  void transmission_finished();
  bool carrier_clear() const;

  Radio& radio_;
  sim::Scheduler& scheduler_;
  sim::Rng rng_;
  Params params_;
  FrameQueue queue_;
  FramePtr last_sent_;
  sim::EventHandle backoff_;
  bool in_flight_ = false;
  std::size_t retries_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::MetricsRegistry::Counter m_sent_;
  obs::MetricsRegistry::Counter m_dropped_;
  obs::MetricsRegistry::Counter m_backoffs_;
  std::function<void(const Packet&)> send_done_;
};

}  // namespace mnp::net
