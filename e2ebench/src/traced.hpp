// Traced run: rebuilds run_experiment's assembly from the public APIs and
// times the calls into each layer through forwarding decorators, from
// outside the simulator. The timed samples never use any of this.
//
// Every executed scheduler event is classified by which boundary fired
// inside it: a ChannelObserver::on_transmit makes it a tx-start event
// (Channel::begin_transmission and its in-flight cross-check); otherwise
// on_deliver, on_collision or Application::on_packet make it a tx-end
// event; anything else (timers, backoffs, scenario events) is "other". An
// event's self time is its step() duration minus the decorated calls
// nested inside it; a decorated call's self time likewise excludes the
// decorated calls nested inside it (a protocol handler's MAC sends).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "harness/experiment.hpp"
#include "net/channel.hpp"
#include "net/link_model.hpp"
#include "net/mac.hpp"
#include "node/application.hpp"

namespace e2ebench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Calls into one decorated boundary and their self time.
struct LayerTime {
  std::uint64_t calls = 0;
  std::int64_t self_ns = 0;
};

/// Events of one class and their self time.
struct EventClass {
  std::uint64_t events = 0;
  std::int64_t self_ns = 0;
};

/// Everything a traced run measures. Accumulates across the runs of one
/// workload (baselines_20x20 runs three protocols into one Tracer).
class Tracer {
 public:
  /// RAII span around one decorated call.
  class Span {
   public:
    Span(Tracer& tracer, LayerTime& layer)
        : tracer_(tracer), layer_(layer), parent_(tracer.open_) {
      tracer.open_ = this;
      start_ = now_ns();
    }
    ~Span() {
      const std::int64_t d = now_ns() - start_;
      ++layer_.calls;
      layer_.self_ns += d - child_ns_;
      if (parent_ != nullptr) {
        parent_->child_ns_ += d;
      } else {
        tracer_.nested_ns_ += d;
      }
      tracer_.open_ = parent_;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    LayerTime& layer_;
    Span* parent_;
    std::int64_t start_ = 0;
    std::int64_t child_ns_ = 0;
  };

  // --- decorated boundaries ------------------------------------------------
  LayerTime link_setup;  // LinkModel queries before the first event
  LayerTime link_run;    // ... and while events execute
  LayerTime mac_send;
  std::uint64_t mac_drops = 0;
  std::size_t mac_queue_peak = 0;
  LayerTime stats_transmit;
  LayerTime stats_deliver;
  LayerTime stats_collision;
  /// Application::on_packet, indexed by harness::Protocol.
  LayerTime on_packet[5];

  // --- event loop ------------------------------------------------------------
  EventClass tx_start;
  EventClass tx_end;
  EventClass other;
  std::int64_t step_ns = 0;
  std::size_t pending_peak = 0;
  std::size_t tombstones_peak = 0;

  /// In-flight transmissions seen by each on_transmit (derived from
  /// transmit times plus Channel::airtime).
  std::uint64_t inflight_sum = 0;
  std::uint64_t inflight_max = 0;

  // --- end-of-run counters, summed over runs --------------------------------
  std::uint64_t tx = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t collisions = 0;
  std::uint64_t bulk_overlaps = 0;
  std::uint64_t cache_repairs = 0;
  std::uint64_t cache_invalidations = 0;
  std::uint64_t frame_node_allocs = 0;
  std::uint64_t frame_payload_allocs = 0;
  std::uint64_t heap_allocs = 0;
  std::uint64_t scenario_injected = 0;

  bool running = false;  // events executing (vs. assembly)
  LayerTime& link() { return running ? link_run : link_setup; }

  // Per-event classification flags, set by the decorators.
  bool saw_transmit = false;
  bool saw_receive = false;

  void begin_event() {
    saw_transmit = false;
    saw_receive = false;
    nested_ns_ = 0;
  }
  void end_event(std::int64_t step_duration_ns) {
    step_ns += step_duration_ns;
    EventClass& c = saw_transmit ? tx_start : saw_receive ? tx_end : other;
    ++c.events;
    c.self_ns += step_duration_ns - nested_ns_;
  }
  std::uint64_t events() const {
    return tx_start.events + tx_end.events + other.events;
  }

 private:
  Span* open_ = nullptr;
  std::int64_t nested_ns_ = 0;  // top-level decorated time in this event
};

// --- decorators ----------------------------------------------------------------
// Each forwards every virtual of its interface; only the hot calls are
// timed. Dropping a forward (max_interference_range, say) would silently
// make the channel run a different program, hence the self-test.

class TimedLinkModel final : public mnp::net::LinkModel {
 public:
  TimedLinkModel(std::unique_ptr<mnp::net::LinkModel> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  double packet_success(mnp::net::NodeId src, mnp::net::NodeId dst,
                        double power_scale) const override {
    Tracer::Span span(tracer_, tracer_.link());
    return inner_->packet_success(src, dst, power_scale);
  }
  bool interferes(mnp::net::NodeId src, mnp::net::NodeId dst,
                  double power_scale) const override {
    Tracer::Span span(tracer_, tracer_.link());
    return inner_->interferes(src, dst, power_scale);
  }
  std::uint64_t revision() const override { return inner_->revision(); }
  double max_interference_range(double power_scale) const override {
    return inner_->max_interference_range(power_scale);
  }
  bool changed_nodes_since(std::uint64_t since,
                           std::vector<mnp::net::NodeId>& out) const override {
    return inner_->changed_nodes_since(since, out);
  }

 private:
  std::unique_ptr<mnp::net::LinkModel> inner_;
  Tracer& tracer_;
};

class TimedMac final : public mnp::net::Mac {
 public:
  TimedMac(std::unique_ptr<mnp::net::Mac> inner, Tracer& tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  void attach_metrics(mnp::obs::MetricsRegistry& registry) override {
    inner_->attach_metrics(registry);
  }
  bool send(mnp::net::FramePtr frame) override {
    bool ok = false;
    {
      Tracer::Span span(tracer_, tracer_.mac_send);
      ok = inner_->send(std::move(frame));
    }
    return account(ok);
  }
  bool send(mnp::net::Packet pkt) override {
    bool ok = false;
    {
      Tracer::Span span(tracer_, tracer_.mac_send);
      ok = inner_->send(std::move(pkt));
    }
    return account(ok);
  }
  void flush() override { inner_->flush(); }
  std::size_t queue_depth() const override { return inner_->queue_depth(); }
  bool idle() const override { return inner_->idle(); }
  std::uint64_t packets_sent() const override { return inner_->packets_sent(); }
  std::uint64_t packets_dropped() const override {
    return inner_->packets_dropped();
  }
  void set_send_done(std::function<void(const mnp::net::Packet&)> cb) override {
    inner_->set_send_done(std::move(cb));
  }

 private:
  bool account(bool ok) {
    if (!ok) ++tracer_.mac_drops;
    tracer_.mac_queue_peak =
        std::max(tracer_.mac_queue_peak, inner_->queue_depth());
    return ok;
  }

  std::unique_ptr<mnp::net::Mac> inner_;
  Tracer& tracer_;
};

class TimedApplication final : public mnp::node::Application {
 public:
  TimedApplication(std::unique_ptr<mnp::node::Application> inner,
                   LayerTime& on_packet, Tracer& tracer)
      : inner_(std::move(inner)), on_packet_(on_packet), tracer_(tracer) {}

  void start(mnp::node::Node& node) override { inner_->start(node); }
  void on_packet(const mnp::net::Packet& pkt) override {
    tracer_.saw_receive = true;
    Tracer::Span span(tracer_, on_packet_);
    inner_->on_packet(pkt);
  }
  bool has_complete_image() const override {
    return inner_->has_complete_image();
  }
  void reset_for_reboot() override { inner_->reset_for_reboot(); }
  std::uint64_t audit_digest() const override { return inner_->audit_digest(); }

 private:
  std::unique_ptr<mnp::node::Application> inner_;
  LayerTime& on_packet_;
  Tracer& tracer_;
};

class TimedObserver final : public mnp::net::ChannelObserver {
 public:
  TimedObserver(mnp::net::ChannelObserver& inner,
                const mnp::net::Channel& channel, Tracer& tracer)
      : inner_(inner), channel_(channel), tracer_(tracer) {}

  void on_transmit(mnp::net::NodeId src, const mnp::net::Packet& pkt,
                   mnp::sim::Time now) override {
    tracer_.saw_transmit = true;
    while (!ends_.empty() && ends_.top() <= now) ends_.pop();
    tracer_.inflight_sum += ends_.size();
    tracer_.inflight_max =
        std::max<std::uint64_t>(tracer_.inflight_max, ends_.size());
    ends_.push(now + channel_.airtime(pkt));
    Tracer::Span span(tracer_, tracer_.stats_transmit);
    inner_.on_transmit(src, pkt, now);
  }
  void on_deliver(mnp::net::NodeId src, mnp::net::NodeId dst,
                  const mnp::net::Packet& pkt, mnp::sim::Time now) override {
    tracer_.saw_receive = true;
    Tracer::Span span(tracer_, tracer_.stats_deliver);
    inner_.on_deliver(src, dst, pkt, now);
  }
  void on_collision(mnp::net::NodeId victim, mnp::sim::Time now) override {
    tracer_.saw_receive = true;
    Tracer::Span span(tracer_, tracer_.stats_collision);
    inner_.on_collision(victim, now);
  }

 private:
  mnp::net::ChannelObserver& inner_;
  const mnp::net::Channel& channel_;
  Tracer& tracer_;
  /// End times of the transmissions in flight (min-heap).
  std::priority_queue<mnp::sim::Time, std::vector<mnp::sim::Time>,
                      std::greater<>>
      ends_;
};

/// Runs `config` through the decorated assembly, accumulating into
/// `tracer`. Returns the same RunResult run_experiment would. Supports the
/// CSMA MAC only (every workload uses it).
mnp::harness::RunResult run_traced(const mnp::harness::ExperimentConfig& config,
                                   Tracer& tracer);

/// Heap allocations through the global operator new while counting is on
/// (alloc_count.cpp; the traced event loop turns it on).
extern std::uint64_t g_heap_allocs;
extern bool g_count_allocs;

}  // namespace e2ebench
