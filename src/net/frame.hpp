// Shared immutable frames: the zero-copy transmit/deliver hot path.
//
// Every transmission in this simulator is physically a broadcast overheard
// by O(neighbors) listeners, so the cost that matters is what we do *per
// neighbor*. A Frame wraps the transmitted Packet exactly once; the MAC
// queue, the channel's in-flight record and every receiver share that one
// immutable instance through FramePtr, an intrusively refcounted handle.
// Refcounts are plain integers, not atomics: a frame never leaves the
// simulation thread that created it (parallel sweeps give every seed its
// own Simulator, Channel and FramePool).
//
// The pool recycles two things in steady state:
//  * frame nodes — a released frame goes back on a free list instead of
//    the heap, so the millionth transmission allocates nothing;
//  * payload buffers — every message carrying a `payload` byte vector
//    (each protocol's data packets, NCast's coded packets) acquires it
//    from the pool and the pool steals the capacity back when the frame
//    dies, so a 128-packet segment recycles a handful of buffers instead
//    of allocating 128 vectors per segment per hop.
//
// Ownership rules (see DESIGN.md section 7): a receiver may keep a copy of
// the FramePtr it was delivered for as long as it likes — the frame stays
// alive and immutable until the last reference drops. The pool's internal
// state is shared_ptr-owned by every live frame, so destruction order of
// Channel vs. MACs vs. application code cannot dangle a frame.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/packet.hpp"

namespace mnp::net {

class FramePool;
class FramePtr;

namespace detail {

struct FramePoolState;

/// One pooled frame: the shared Packet plus its intrusive refcount. `home`
/// is non-null exactly while the frame is live (refs > 0) and keeps the
/// pool state alive so release is safe in any destruction order.
struct FrameNode {
  Packet pkt;
  std::uint32_t refs = 0;
  std::shared_ptr<FramePoolState> home;
};

struct FramePoolState {
  std::vector<FrameNode*> free_nodes;
  std::vector<std::vector<std::uint8_t>> free_payloads;

  // Introspection for tests/benches: steady state means node_allocs and
  // payload_allocs stop growing while frames keep flowing.
  std::uint64_t node_allocs = 0;
  std::uint64_t payload_allocs = 0;
  std::uint64_t live = 0;

  ~FramePoolState();
};

/// Drops one reference; on the last one, reclaims payload capacity and
/// puts the node on the free list. Defined in frame.cpp.
void release_frame(FrameNode* node);

}  // namespace detail

/// Shared-ownership handle to an immutable in-flight Packet.
class FramePtr {
 public:
  FramePtr() = default;
  FramePtr(const FramePtr& other) : node_(other.node_) {
    if (node_) ++node_->refs;
  }
  FramePtr(FramePtr&& other) noexcept : node_(other.node_) {
    other.node_ = nullptr;
  }
  FramePtr& operator=(const FramePtr& other) {
    if (this != &other) {
      reset();
      node_ = other.node_;
      if (node_) ++node_->refs;
    }
    return *this;
  }
  FramePtr& operator=(FramePtr&& other) noexcept {
    if (this != &other) {
      reset();
      node_ = other.node_;
      other.node_ = nullptr;
    }
    return *this;
  }
  ~FramePtr() { reset(); }

  const Packet& operator*() const { return node_->pkt; }
  const Packet* operator->() const { return &node_->pkt; }
  const Packet* get() const { return node_ ? &node_->pkt : nullptr; }
  explicit operator bool() const { return node_ != nullptr; }

  void reset() {
    if (node_ != nullptr) {
      detail::FrameNode* n = node_;
      node_ = nullptr;
      detail::release_frame(n);
    }
  }

  /// Current reference count (0 for an empty handle). Tests only.
  std::uint32_t use_count() const { return node_ ? node_->refs : 0; }

 private:
  friend class FramePool;
  explicit FramePtr(detail::FrameNode* node) : node_(node) {
    ++node_->refs;
  }

  detail::FrameNode* node_ = nullptr;
};

class FramePool {
 public:
  FramePool() : state_(std::make_shared<detail::FramePoolState>()) {}

  /// Wraps `pkt` into a shared frame, reusing a pooled node when one is
  /// available.
  [[nodiscard]] FramePtr adopt(Packet&& pkt);

  /// An empty byte buffer whose capacity was stolen from a dead frame's
  /// payload whenever possible. Fill it and move it into a message's
  /// `payload`; the pool gets the capacity back when that frame dies.
  [[nodiscard]] std::vector<std::uint8_t> acquire_payload();

  // --- introspection ------------------------------------------------------
  std::uint64_t node_allocations() const { return state_->node_allocs; }
  std::uint64_t payload_allocations() const { return state_->payload_allocs; }
  std::uint64_t live_frames() const { return state_->live; }
  std::size_t pooled_nodes() const { return state_->free_nodes.size(); }
  std::size_t pooled_payloads() const { return state_->free_payloads.size(); }

 private:
  std::shared_ptr<detail::FramePoolState> state_;
};

}  // namespace mnp::net
