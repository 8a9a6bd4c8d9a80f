// SS-TDMA-style slotted MAC for grid deployments (Kulkarni & Arumugam,
// "SS-TDMA: a self-stabilizing MAC for sensor networks" — reference [9]
// of the paper, proposed in its conclusion as MNP's companion MAC).
//
// Slot assignment is the classic grid tiling: a node at (row, col) owns
// slot (row % m) * m + (col % m) of an m^2-slot frame. Two nodes sharing a
// slot are at least m grid cells apart on some axis; choosing m such that
//   m * spacing > 2 * interference_range
// guarantees no listener can be reached by two same-slot transmitters, so
// transmissions are collision-free by construction. (The original
// protocol reaches this assignment by self-stabilization; we compute it
// directly — the steady state is identical.)
//
// A node transmits only in its own slot; between its slots it may keep
// the radio off (the energy property the paper wants from TDMA). The MAC
// wakes the radio for its slot if the protocol left it on-duty.
#pragma once

#include <cstdint>
#include <functional>

#include "net/mac.hpp"
#include "net/radio.hpp"
#include "sim/scheduler.hpp"

namespace mnp::net {

class TdmaMac final : public Mac {
 public:
  struct Params {
    /// Slot length; must cover the longest packet's airtime plus guard.
    sim::Time slot_duration = sim::msec(30);
    /// Frame length in slots (m^2 for an m-tiling). Computed by
    /// `frame_slots_for_grid` in normal use.
    std::uint32_t frame_slots = 9;
    /// This node's slot within the frame.
    std::uint32_t my_slot = 0;
    std::size_t queue_capacity = 24;
  };

  /// Tiling parameter m for a grid: smallest m whose same-slot spacing
  /// m * spacing exceeds interference + communication reach.
  static std::uint32_t tile_for_grid(double spacing_ft, double range_ft,
                                     double interference_factor);
  /// Slot of grid node (row, col) under an m-tiling.
  static std::uint32_t slot_for(std::size_t row, std::size_t col, std::uint32_t m);

  TdmaMac(Radio& radio, sim::Scheduler& scheduler, Params params);

  bool send(FramePtr frame) override;
  bool send(Packet pkt) override;
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
  void set_send_done(std::function<void(const Packet&)> cb) override {
    send_done_ = std::move(cb);
  }

  std::uint32_t my_slot() const { return params_.my_slot; }
  sim::Time frame_duration() const {
    return params_.slot_duration * params_.frame_slots;
  }

 private:
  void arm_next_slot();
  void slot_fired();
  void transmission_finished();

  Radio& radio_;
  sim::Scheduler& scheduler_;
  Params params_;
  FrameQueue queue_;
  FramePtr last_sent_;
  sim::EventHandle slot_timer_;
  bool in_flight_ = false;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::MetricsRegistry::Counter m_sent_;
  obs::MetricsRegistry::Counter m_dropped_;
  std::function<void(const Packet&)> send_done_;
};

}  // namespace mnp::net
