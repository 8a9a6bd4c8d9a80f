// Unit tests for the discrete event scheduler.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/audit.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"

namespace mnp::sim {
namespace {

TEST(Scheduler, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_at(msec(30), [&] { order.push_back(3); });
  s.schedule_at(msec(10), [&] { order.push_back(1); });
  s.schedule_at(msec(20), [&] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), msec(30));
}

TEST(Scheduler, SameTimeEventsRunFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(msec(5), [&order, i] { order.push_back(i); });
  }
  s.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, ScheduleAfterIsRelative) {
  Scheduler s;
  Time fired = -1;
  s.schedule_at(msec(10), [&] {
    s.schedule_after(msec(5), [&] { fired = s.now(); });
  });
  s.run_all();
  EXPECT_EQ(fired, msec(15));
}

TEST(Scheduler, PastTimesClampToNow) {
  Scheduler s;
  Time fired = -1;
  s.schedule_at(msec(10), [&] {
    s.schedule_at(msec(1), [&] { fired = s.now(); });  // in the past
  });
  s.run_all();
  EXPECT_EQ(fired, msec(10));
}

TEST(Scheduler, NegativeDelayClampsToZero) {
  Scheduler s;
  bool fired = false;
  s.schedule_after(-100, [&] { fired = true; });
  s.run_all();
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.now(), 0);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool fired = false;
  EventHandle h = s.schedule_at(msec(10), [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  s.run_all();
  EXPECT_FALSE(fired);
}

TEST(Scheduler, CancelIsIdempotentAndSafeAfterFire) {
  Scheduler s;
  EventHandle h = s.schedule_at(msec(1), [] {});
  s.run_all();
  EXPECT_FALSE(h.pending());
  h.cancel();  // no-op
  h.cancel();
  EventHandle empty;
  empty.cancel();  // default handle: also safe
  EXPECT_FALSE(empty.pending());
}

TEST(Scheduler, CancelledHeadDoesNotConsumeLaterEvents) {
  // Regression: a cancelled event at the queue head must not cause a live
  // event beyond the run_until horizon to be consumed.
  Scheduler s;
  bool late_fired = false;
  EventHandle early = s.schedule_at(msec(1), [] {});
  s.schedule_at(msec(100), [&] { late_fired = true; });
  early.cancel();
  s.run_until(msec(10));
  EXPECT_FALSE(late_fired);
  EXPECT_EQ(s.executed_events(), 0u);
  s.run_until(msec(100));
  EXPECT_TRUE(late_fired);
}

TEST(Scheduler, RunUntilStopsAtHorizon) {
  Scheduler s;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    s.schedule_at(msec(i * 10), [&] { ++count; });
  }
  EXPECT_EQ(s.run_until(msec(50)), 5u);
  EXPECT_EQ(count, 5);
  EXPECT_EQ(s.run_until(msec(1000)), 5u);
  EXPECT_EQ(count, 10);
}

TEST(Scheduler, ClockParksAtTheHorizon) {
  // Regression: run_until(t) must leave the clock at t even when no event
  // fell inside the window, so relative windows (run_until(now + dt))
  // always make progress across event gaps.
  Scheduler s;
  s.run_until(msec(100));
  EXPECT_EQ(s.now(), msec(100));  // empty window still advances the clock
  bool fired = false;
  s.schedule_at(msec(500), [&] { fired = true; });
  for (int i = 0; i < 5; ++i) s.run_until(s.now() + msec(100));
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.now(), msec(600));
}

TEST(Scheduler, RunAllDoesNotJumpToInfinity) {
  Scheduler s;
  s.schedule_at(msec(7), [] {});
  s.run_all();
  EXPECT_EQ(s.now(), msec(7));  // clock rests at the last event
  // Scheduling afterwards still works at sane times.
  bool fired = false;
  s.schedule_after(msec(1), [&] { fired = true; });
  s.run_until(msec(10));
  EXPECT_TRUE(fired);
}

TEST(Scheduler, StepExecutesExactlyOne) {
  Scheduler s;
  int count = 0;
  s.schedule_at(msec(1), [&] { ++count; });
  s.schedule_at(msec(2), [&] { ++count; });
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 1);
  EXPECT_TRUE(s.step());
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, EventsScheduledDuringRunExecute) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.schedule_after(msec(1), [&recurse] { recurse(); });
  };
  s.schedule_after(msec(1), [&recurse] { recurse(); });
  s.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), msec(5));
}

TEST(Scheduler, NextEventTimeSkipsTombstones) {
  Scheduler s;
  EventHandle a = s.schedule_at(msec(5), [] {});
  s.schedule_at(msec(9), [] {});
  EXPECT_EQ(s.next_event_time(), msec(5));
  a.cancel();
  EXPECT_EQ(s.next_event_time(), msec(9));
}

TEST(Scheduler, EmptyAfterDrain) {
  Scheduler s;
  EXPECT_TRUE(s.empty());
  EventHandle h = s.schedule_at(msec(5), [] {});
  EXPECT_FALSE(s.empty());
  h.cancel();
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, PostFiresWithoutHandle) {
  Scheduler s;
  std::vector<int> order;
  s.post_at(msec(20), [&] { order.push_back(2); });
  s.post_after(msec(10), [&] { order.push_back(1); });
  s.schedule_at(msec(30), [&] { order.push_back(3); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, CancelUpdatesPendingAccountingImmediately) {
  // Regression: pending_events() used to keep counting cancelled-but-
  // unswept tombstones. Cancellation now removes the entry outright.
  Scheduler s;
  EventHandle a = s.schedule_at(msec(1), [] {});
  EventHandle b = s.schedule_at(msec(2), [] {});
  s.schedule_at(msec(3), [] {});
  EXPECT_EQ(s.pending_events(), 3u);
  b.cancel();
  EXPECT_EQ(s.pending_events(), 2u);
  EXPECT_EQ(s.tombstone_events(), 0u);
  a.cancel();
  EXPECT_EQ(s.pending_events(), 1u);
  s.run_all();
  EXPECT_EQ(s.pending_events(), 0u);
  EXPECT_EQ(s.tombstone_events(), 0u);
  EXPECT_EQ(s.executed_events(), 1u);
}

TEST(Scheduler, CancelHeavyChurnCompactsTheQueue) {
  Scheduler s;
  std::vector<EventHandle> handles;
  const std::size_t n = 10000;
  handles.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    handles.push_back(
        s.schedule_at(static_cast<Time>(i + 1), [] { FAIL(); }));
  }
  for (auto& h : handles) h.cancel();
  EXPECT_EQ(s.pending_events(), 0u);
  // Cancellation must not retain the n cancelled entries: each leaves the
  // queue as it is cancelled.
  EXPECT_LT(s.tombstone_events(), n / 2 + 65);
  EXPECT_TRUE(s.empty());
  // The slot pool is recycled: fresh scheduling still works afterwards.
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    s.schedule_after(msec(i), [&] { ++fired; });
  }
  s.run_all();
  EXPECT_EQ(fired, 100);
}

TEST(Scheduler, StaleHandleDoesNotCancelSlotReuse) {
  Scheduler s;
  EventHandle old = s.schedule_at(msec(1), [] {});
  s.run_all();
  // The next event may recycle old's cancellation slot; the stale handle
  // must stay inert.
  bool fired = false;
  EventHandle fresh = s.schedule_at(msec(10), [&] { fired = true; });
  old.cancel();
  EXPECT_FALSE(old.pending());
  EXPECT_TRUE(fresh.pending());
  s.run_all();
  EXPECT_TRUE(fired);
}

// --- differential test against a reference queue ---------------------------

/// Drives a Scheduler and a reference queue with the same operations and
/// reports the first disagreement. The reference is a flat list scanned
/// for the least (when, seq) under the active tie-break, with seqs and
/// FNV tags numbered exactly as the scheduler numbers them.
///
/// Event ids encode (root, depth) as root * kDepths + depth: a root's
/// action re-arms it `rearms[root]` times, `delays[root]` apart (0 re-arms
/// at the same instant), as a protocol timer re-arms itself.
class DiffHarness {
 public:
  static constexpr int kDepths = 4;

  /// Adds a root event at `when` (past times clamp to now). Posted roots
  /// re-arm through post_after and get no handle.
  void add(Time when, bool posted, int rearms, Time delay) {
    const int id = static_cast<int>(posted_.size()) * kDepths;
    posted_.push_back(posted);
    rearms_.push_back(rearms);
    delays_.push_back(delay);
    live_.resize(live_.size() + kDepths, false);
    if (posted) {
      sched_.post_at(when, action(id));
    } else {
      handles_.push_back({sched_.schedule_at(when, action(id)), id});
    }
    ref_push(when, id);
  }

  /// Cancels the `k`-th handle ever handed out: live, fired or stale.
  void cancel(std::size_t k) {
    handles_[k].handle.cancel();
    const int id = handles_[k].id;
    for (std::size_t i = 0; i < ref_.size(); ++i) {
      if (ref_[i].id != id) continue;
      ref_.erase(ref_.begin() + static_cast<std::ptrdiff_t>(i));
      live_[static_cast<std::size_t>(id)] = false;
      break;
    }
  }

  void step() {
    const bool stepped = sched_.step();
    if (stepped != !ref_.empty()) step_mismatch_ = true;
    if (!ref_.empty()) ref_fire();
  }

  void run_until(Time until) {
    sched_.run_until(until);
    while (!ref_.empty() && ref_[ref_top()].when <= until) ref_fire();
    if (until > ref_now_) ref_now_ = until;
  }

  void flip_tie_break() {
    tie_break_ =
        tie_break_ == TieBreak::kFifo ? TieBreak::kLifo : TieBreak::kFifo;
    sched_.set_tie_break(tie_break_);
  }

  Time now() const { return ref_now_; }
  std::size_t handles() const { return handles_.size(); }

  /// Empty when the scheduler agrees with the reference on fire order,
  /// clock, counts, next event time, signature and a sample of handles
  /// (the newest 32 plus `probe`); otherwise names the first difference.
  std::string mismatch(std::size_t probe) {
    if (step_mismatch_) return "step() return value";
    if (fired_.size() != ref_fired_.size()) return "fired count";
    for (; checked_ < fired_.size(); ++checked_) {
      if (fired_[checked_] != ref_fired_[checked_]) {
        return "fire order at event " + std::to_string(checked_);
      }
    }
    if (sched_.executed_events() != ref_fired_.size()) return "executed";
    if (sched_.now() != ref_now_) return "now()";
    if (sched_.pending_events() != ref_.size()) return "pending_events()";
    const Time next = ref_.empty() ? kNever : ref_[ref_top()].when;
    if (sched_.next_event_time() != next) return "next_event_time()";
    if (sched_.empty() != ref_.empty()) return "empty()";
    std::uint64_t sig = 0;
    for (const RefEvent& e : ref_) sig ^= e.tag;
    if (sched_.pending_signature() != sig) return "pending_signature()";
    if (sched_.tombstone_events() != 0) return "tombstone_events()";
    const std::size_t from = handles_.size() > 32 ? handles_.size() - 32 : 0;
    for (std::size_t k = from; k <= handles_.size(); ++k) {
      const std::size_t i = k == handles_.size() ? probe : k;
      if (i >= handles_.size()) continue;
      const bool want = live_[static_cast<std::size_t>(handles_[i].id)];
      if (handles_[i].handle.pending() != want) {
        return "pending() of handle " + std::to_string(i);
      }
    }
    return {};
  }

 private:
  struct Handle {
    EventHandle handle;
    int id;
  };
  struct RefEvent {
    Time when;
    std::uint64_t seq;
    std::uint64_t tag;
    int id;
  };

  Scheduler::Action action(int id) {
    return [this, id] { fire(id); };
  }

  /// The scheduler's side of an event: log it, re-arm if its root says so.
  void fire(int id) {
    fired_.push_back(id);
    const auto root = static_cast<std::size_t>(id / kDepths);
    if (id % kDepths >= rearms_[root]) return;
    if (posted_[root]) {
      sched_.post_after(delays_[root], action(id + 1));
    } else {
      handles_.push_back(
          {sched_.schedule_after(delays_[root], action(id + 1)), id + 1});
    }
  }

  void ref_push(Time when, int id) {
    if (when < ref_now_) when = ref_now_;
    const std::uint64_t seq = ref_seq_++;
    const std::uint64_t tag =
        fnv1a(fnv1a(kFnvOffset, static_cast<std::uint64_t>(when)), seq);
    ref_.push_back({when, seq, tag, id});
    live_[static_cast<std::size_t>(id)] = true;
  }

  std::size_t ref_top() const {
    std::size_t best = 0;
    for (std::size_t i = 1; i < ref_.size(); ++i) {
      const RefEvent& a = ref_[i];
      const RefEvent& b = ref_[best];
      const bool earlier =
          a.when != b.when ? a.when < b.when
          : tie_break_ == TieBreak::kFifo ? a.seq < b.seq
                                          : a.seq > b.seq;
      if (earlier) best = i;
    }
    return best;
  }

  void ref_fire() {
    const std::size_t top = ref_top();
    const RefEvent e = ref_[top];
    ref_.erase(ref_.begin() + static_cast<std::ptrdiff_t>(top));
    live_[static_cast<std::size_t>(e.id)] = false;
    ref_now_ = e.when;
    ref_fired_.push_back(e.id);
    const auto root = static_cast<std::size_t>(e.id / kDepths);
    if (e.id % kDepths < rearms_[root]) {
      ref_push(ref_now_ + delays_[root], e.id + 1);
    }
  }

  Scheduler sched_;
  TieBreak tie_break_ = TieBreak::kFifo;
  // Per root.
  std::vector<bool> posted_;
  std::vector<int> rearms_;
  std::vector<Time> delays_;
  // Per event id.
  std::vector<bool> live_;  // the reference's pending set
  std::vector<Handle> handles_;
  std::vector<int> fired_;
  // The reference queue.
  std::vector<RefEvent> ref_;
  std::vector<int> ref_fired_;
  std::uint64_t ref_seq_ = 0;
  Time ref_now_ = 0;
  std::size_t checked_ = 0;
  bool step_mismatch_ = false;
};

TEST(Scheduler, MatchesReferenceQueueUnderRandomOperations) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    DiffHarness h;
    for (int op = 0; op < 5000; ++op) {
      const std::int64_t pick = rng.uniform_int(0, 99);
      std::size_t probe = 0;
      if (pick < 45) {
        // Schedule or post a root, sometimes in the past; many share a
        // timestamp so the tie-break decides.
        const Time when = h.now() + rng.uniform_int(-5, 40);
        const bool posted = pick >= 30;
        const auto rearms =
            static_cast<int>(rng.uniform_int(0, DiffHarness::kDepths - 1));
        h.add(when, posted, rearms, rng.uniform_int(0, 8));
      } else if (pick < 65) {
        if (h.handles() != 0) {
          probe = static_cast<std::size_t>(rng.uniform_int(
              0, static_cast<std::int64_t>(h.handles()) - 1));
          h.cancel(probe);
        }
      } else if (pick < 82) {
        h.step();
      } else if (pick < 95) {
        h.run_until(h.now() + rng.uniform_int(0, 25));
      } else {
        h.flip_tie_break();
      }
      ASSERT_EQ(h.mismatch(probe), "") << "seed " << seed << ", op " << op;
    }
    h.run_until(h.now() + 1000);
    ASSERT_EQ(h.mismatch(0), "") << "seed " << seed << ", drain";
  }
}

TEST(Simulator, RunUntilConditionStopsEarly) {
  Simulator sim(1);
  int count = 0;
  for (int i = 1; i <= 100; ++i) {
    sim.scheduler().schedule_at(msec(i), [&] { ++count; });
  }
  const bool met =
      sim.run_until_condition(sec(10), [&] { return count >= 7; });
  EXPECT_TRUE(met);
  EXPECT_EQ(count, 7);
  EXPECT_EQ(sim.now(), msec(7));
}

TEST(Simulator, RunUntilConditionHonoursDeadline) {
  Simulator sim(1);
  int count = 0;
  for (int i = 1; i <= 100; ++i) {
    sim.scheduler().schedule_at(sec(i), [&] { ++count; });
  }
  const bool met = sim.run_until_condition(sec(10), [&] { return count >= 50; });
  EXPECT_FALSE(met);
  EXPECT_LE(count, 10);
}

TEST(Simulator, RunUntilConditionExhaustsEvents) {
  Simulator sim(1);
  sim.scheduler().schedule_at(msec(1), [] {});
  const bool met = sim.run_until_condition(sec(10), [] { return false; });
  EXPECT_FALSE(met);
}

}  // namespace
}  // namespace mnp::sim
