// Discrete event scheduler: the heart of the TOSSIM-like simulator.
//
// Events are closures ordered by (time, insertion sequence) so same-time
// events run in a deterministic FIFO order.
//
// The queue never allocates in steady state. Every event, posted or
// scheduled, occupies a slot of a recycled pool that holds its action (a
// fixed-size inline callable, never a heap closure), its FNV-1a tag and a
// generation counter; a compact array beside the pool holds the index of
// each slot's key in the heap. The binary heap itself holds only 24-byte
// trivially copyable keys {when, seq, slot}, and a sift carries the moving
// key through a hole, storing it once, so each level moves one key. A
// handle is {scheduler, slot, generation}; cancel() removes the event's
// key at its recorded heap index at once, so the heap holds exactly the
// live pending set and no cancelled event is ever popped. Firing copies
// the action out and frees the slot before running it: stale handles stay
// inert and an action may re-arm its own timer.
//
// Determinism auditing (DESIGN.md section 12): the scheduler maintains an
// incremental XOR signature of the live pending set (one FNV-1a tag per
// queued entry) and, when an Audit is attached, reports it at every event
// boundary. The same-time tie-break (FIFO by insertion sequence) can be
// flipped to LIFO with set_tie_break — re-running a seed under the
// opposite tie-break and diffing the audit chains exposes event pairs
// whose relative order silently changes protocol state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "sim/time.hpp"

namespace mnp::sim {

class Audit;
class Scheduler;

/// Execution order of same-timestamp events: kFifo runs them in insertion
/// order (the production default), kLifo in reverse. Both are total orders,
/// so either way a run is fully deterministic — flipping between them is
/// the audit toolchain's probe for order-sensitive protocol logic.
enum class TieBreak : std::uint8_t { kFifo, kLifo };

/// Handle to a scheduled event. Copyable; all copies refer to the same
/// event. A default-constructed handle refers to nothing. Handles must not
/// outlive the scheduler that issued them (in this codebase every handle
/// owner also references the scheduler, so lifetimes already nest).
class EventHandle {
 public:
  EventHandle() = default;

  /// True if the event is still queued (not fired, not cancelled).
  inline bool pending() const;

  /// Cancels the event if still pending. Safe to call repeatedly, safe on a
  /// default-constructed handle, safe after the event fired.
  inline void cancel();

 private:
  friend class Scheduler;
  EventHandle(Scheduler* owner, std::uint32_t slot, std::uint32_t gen)
      : owner_(owner), slot_(slot), gen_(gen) {}

  Scheduler* owner_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Scheduler {
 public:
  /// An event's action: a callable stored in place, never on the heap. It
  /// takes any trivially copyable, trivially destructible callable of at
  /// most kCapacity bytes — a lambda capturing pointers, references and
  /// plain values. Anything larger, or owning (a std::function, a
  /// shared_ptr, a container), fails to compile: capture a pointer to it.
  class Action {
   public:
    /// The largest production capture: ScenarioEngine::start_move's
    /// [this, id, p, last].
    static constexpr std::size_t kCapacity = 40;
    static constexpr std::size_t kAlign = alignof(std::uint64_t);

    Action() = default;

    /// Implicit, so a lambda passes straight to schedule_*/post_*.
    template <typename F>
      requires(!std::is_same_v<F, Action> && std::is_invocable_v<F&>)
    Action(F f) {
      static_assert(sizeof(F) <= kCapacity,
                    "event capture too large: capture a pointer instead");
      static_assert(alignof(F) <= kAlign, "event capture over-aligned");
      static_assert(std::is_trivially_copyable_v<F> &&
                        std::is_trivially_destructible_v<F>,
                    "event capture must be trivially copyable and "
                    "destructible: capture a pointer to what it owns");
      std::construct_at(reinterpret_cast<F*>(storage_), f);
      invoke_ = [](unsigned char* storage) {
        (*std::launder(reinterpret_cast<F*>(storage)))();
      };
    }

    void operator()() { invoke_(storage_); }

   private:
    void (*invoke_)(unsigned char*) = nullptr;
    alignas(kAlign) unsigned char storage_[kCapacity] = {};
  };
  static_assert(std::is_trivially_copyable_v<Action>);

  /// Schedules `action` at absolute time `when` (clamped to >= now()).
  EventHandle schedule_at(Time when, Action action);

  /// Schedules `action` `delay` microseconds from now (clamped to >= 0).
  EventHandle schedule_after(Time delay, Action action);

  /// Fire-and-forget variants for callers that never cancel: the same
  /// queue entry, minus the handle.
  void post_at(Time when, Action action) { push(when, action); }
  void post_after(Time delay, Action action);

  Time now() const { return now_; }
  /// True when no event is pending.
  bool empty() const { return heap_.empty(); }
  /// Queued events. A cancelled event leaves the queue immediately.
  std::size_t pending_events() const { return heap_.size(); }
  /// Always 0: cancellation removes the event from the queue at once, so
  /// no cancelled entry lingers. Kept for callers that report queue health.
  std::size_t tombstone_events() const { return 0; }
  std::uint64_t executed_events() const { return executed_; }

  /// Runs events until the queue is empty or the next event is after
  /// `until`; the clock ends at min(until, last event time). Returns the
  /// number of events executed.
  std::uint64_t run_until(Time until);

  /// Runs everything. Intended for tests; production runs give a horizon.
  std::uint64_t run_all() { return run_until(std::numeric_limits<Time>::max()); }

  /// Executes at most one pending event. Returns false if none remained.
  bool step();

  /// Time of the next event, or kNever if none.
  Time next_event_time() const {
    return heap_.empty() ? kNever : heap_.front().when;
  }

  /// Switches the same-time tie-break. Safe at any point: the heap is
  /// re-ordered under the new comparator.
  void set_tie_break(TieBreak tie_break);
  TieBreak tie_break() const { return tie_break_; }

  /// Attaches (or detaches, with nullptr) the determinism auditor; it is
  /// called after every executed event. Not owned.
  void set_audit(Audit* audit) { audit_ = audit; }

  /// XOR of per-entry FNV-1a tags over the live pending set. Two runs with
  /// identical histories have identical signatures at every boundary.
  std::uint64_t pending_signature() const { return pending_sig_; }

 private:
  friend class EventHandle;

  /// Heap entry: only what ordering needs, plus the slot holding the rest.
  struct Key {
    Time when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static_assert(sizeof(Key) == 24 && std::is_trivially_copyable_v<Key>);

  /// One event's out-of-line state, pooled and recycled. `gen` is bumped
  /// whenever the slot is vacated (fired or cancelled), so handles from
  /// earlier tenants never match the current one.
  struct Slot {
    Action action;
    std::uint64_t tag = 0;  // FNV-1a of (when, seq); XORed into pending_sig_
    std::uint32_t gen = 0;
  };

  /// Queues `action` and returns its slot.
  std::uint32_t push(Time when, const Action& action);
  /// Pops and runs the earliest event; the heap must not be empty.
  void fire_next();
  /// Drops the key at heap index `pos`, restoring the heap around it.
  void remove_at(std::size_t pos);
  /// Moves the hole at heap index `pos` up (or down) past every key `key`
  /// runs before (after), then stores `key` in it.
  void sift_up(std::size_t pos, Key key);
  void sift_down(std::size_t pos, Key key);
  /// Stores `key` at heap index `pos` and records the index for its slot.
  void place(std::size_t pos, const Key& key) {
    heap_[pos] = key;
    heap_pos_[key.slot] = static_cast<std::uint32_t>(pos);
  }
  /// True when `a` runs before `b` under the active tie-break.
  bool before(const Key& a, const Key& b) const {
    if (a.when != b.when) return a.when < b.when;
    return tie_break_ == TieBreak::kFifo ? a.seq < b.seq : a.seq > b.seq;
  }

  // EventHandle backends.
  bool slot_pending(std::uint32_t slot, std::uint32_t gen) const {
    return slot < slots_.size() && slots_[slot].gen == gen;
  }
  void cancel_slot(std::uint32_t slot, std::uint32_t gen);

  std::vector<Key> heap_;  // binary min-heap under before()
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> heap_pos_;  // per slot: its key's index in heap_
  std::vector<std::uint32_t> free_slots_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  TieBreak tie_break_ = TieBreak::kFifo;
  std::uint64_t pending_sig_ = 0;  // XOR of queued entries' tags
  Audit* audit_ = nullptr;
};

inline bool EventHandle::pending() const {
  return owner_ && owner_->slot_pending(slot_, gen_);
}

inline void EventHandle::cancel() {
  if (owner_) owner_->cancel_slot(slot_, gen_);
}

}  // namespace mnp::sim
