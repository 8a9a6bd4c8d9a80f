#include "sim/scheduler.hpp"

#include <cassert>
#include <limits>

#include "sim/audit.hpp"

namespace mnp::sim {

std::uint32_t Scheduler::push(Time when, const Action& action) {
  if (when < now_) when = now_;
  const std::uint64_t seq = next_seq_++;
  const std::uint64_t tag =
      fnv1a(fnv1a(kFnvOffset, static_cast<std::uint64_t>(when)), seq);
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
    heap_pos_.push_back(0);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.action = action;
  s.tag = tag;
  pending_sig_ ^= tag;
  const Key key{when, seq, slot};
  heap_.push_back(key);  // grows the heap; sift_up places the key
  sift_up(heap_.size() - 1, key);
  return slot;
}

EventHandle Scheduler::schedule_at(Time when, Action action) {
  const std::uint32_t slot = push(when, action);
  return EventHandle(this, slot, slots_[slot].gen);
}

EventHandle Scheduler::schedule_after(Time delay, Action action) {
  if (delay < 0) delay = 0;
  return schedule_at(now_ + delay, action);
}

void Scheduler::post_after(Time delay, Action action) {
  if (delay < 0) delay = 0;
  push(now_ + delay, action);
}

void Scheduler::sift_up(std::size_t pos, const Key key) {
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / 2;
    if (!before(key, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, key);
}

void Scheduler::sift_down(std::size_t pos, const Key key) {
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
    if (!before(heap_[child], key)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, key);
}

void Scheduler::remove_at(std::size_t pos) {
  const Key last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // the removed key was the last one
  if (pos > 0 && before(last, heap_[(pos - 1) / 2])) {
    sift_up(pos, last);
  } else {
    sift_down(pos, last);
  }
}

void Scheduler::cancel_slot(std::uint32_t slot, std::uint32_t gen) {
  if (!slot_pending(slot, gen)) return;
  Slot& s = slots_[slot];
  pending_sig_ ^= s.tag;
  ++s.gen;  // the handle goes stale with the event
  remove_at(heap_pos_[slot]);
  free_slots_.push_back(slot);
}

void Scheduler::fire_next() {
  const Key top = heap_.front();
  Slot& s = slots_[top.slot];
  // Copied out and the slot freed before the action runs: the action may
  // schedule (growing slots_), cancel its own stale handle or re-arm.
  Action action = s.action;
  pending_sig_ ^= s.tag;  // the entry leaves the pending set as it fires
  ++s.gen;
  free_slots_.push_back(top.slot);
  remove_at(0);
  assert(top.when >= now_);
  now_ = top.when;
  ++executed_;
  action();
  if (audit_ != nullptr) audit_->on_event(now_, pending_sig_, executed_ - 1);
}

void Scheduler::set_tie_break(TieBreak tie_break) {
  if (tie_break == tie_break_) return;
  tie_break_ = tie_break;
  for (std::size_t pos = heap_.size() / 2; pos-- > 0;) {
    sift_down(pos, heap_[pos]);
  }
}

std::uint64_t Scheduler::run_until(Time until) {
  std::uint64_t count = 0;
  while (!heap_.empty() && heap_.front().when <= until) {
    fire_next();
    ++count;
  }
  // The window [now_, until] is fully processed: park the clock at the
  // horizon so repeated relative windows (run_until(now() + dt)) make
  // progress across event gaps. run_all()'s "forever" horizon is exempt —
  // the clock would otherwise jump to +infinity.
  if (until != std::numeric_limits<Time>::max() && until > now_) {
    now_ = until;
  }
  return count;
}

bool Scheduler::step() {
  if (heap_.empty()) return false;
  fire_next();
  return true;
}

}  // namespace mnp::sim
