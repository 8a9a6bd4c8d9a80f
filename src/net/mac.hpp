// MAC protocol interface.
//
// MNP is MAC-agnostic: the paper runs it over TinyOS's CSMA but its
// conclusion proposes combining it with TDMA (citing the authors' own
// SS-TDMA) so nodes can sleep between their slots. Both MACs implement
// this interface; the mote runtime owns one of them.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/frame.hpp"
#include "net/packet.hpp"
#include "obs/metrics.hpp"

namespace mnp::net {

/// A MAC's transmit queue: a FIFO ring of a fixed number of frames. Its
/// slots are allocated once, at construction, so queueing never allocates.
class FrameQueue {
 public:
  explicit FrameQueue(std::size_t capacity) : slots_(capacity) {}

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool full() const { return size_ == slots_.size(); }

  /// Appends `frame`. Requires !full().
  void push(FramePtr frame) {
    std::size_t tail = head_ + size_;
    if (tail >= slots_.size()) tail -= slots_.size();
    slots_[tail] = std::move(frame);
    ++size_;
  }
  /// Removes and returns the oldest frame. Requires !empty().
  FramePtr pop() {
    FramePtr frame = std::move(slots_[head_]);
    if (++head_ == slots_.size()) head_ = 0;
    --size_;
    return frame;
  }
  /// Releases every queued frame, front to back.
  void clear() {
    while (!empty()) pop();
  }

 private:
  std::vector<FramePtr> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

class Mac {
 public:
  virtual ~Mac() = default;

  /// Registers this MAC's counters (mac.* names, DESIGN.md section 9) in
  /// `registry`, which then holds them. Node calls it once, before the
  /// first send. Default: a MAC with no counters ignores it.
  virtual void attach_metrics(obs::MetricsRegistry& registry) {
    (void)registry;
  }

  /// Enqueues the shared frame — the zero-copy hot path. The MAC holds a
  /// reference in its queue; the Packet inside is never copied again.
  virtual bool send(FramePtr frame) = 0;

  /// Convenience: wraps `pkt` into a frame (via the radio's channel pool)
  /// and enqueues it. Returns false (dropped) when the queue is full or
  /// the radio is off.
  virtual bool send(Packet pkt) = 0;

  /// Drops queued packets and pending backoffs/slots. Called when the
  /// protocol silences this node (e.g. going to sleep).
  virtual void flush() = 0;

  virtual std::size_t queue_depth() const = 0;
  /// True when nothing is queued and nothing is in flight.
  virtual bool idle() const = 0;
  virtual std::uint64_t packets_sent() const = 0;
  virtual std::uint64_t packets_dropped() const = 0;

  /// Invoked after each completed transmission with the packet sent.
  virtual void set_send_done(std::function<void(const Packet&)> cb) = 0;
};

}  // namespace mnp::net
