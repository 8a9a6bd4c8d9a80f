// Allocation gates. This binary replaces the global operator new with one
// that counts while a test holds the counting window open, so a gate fails
// the moment an event, a transmission or a timer starts allocating again.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>

#include "boot/progress_journal.hpp"
#include "harness/experiment.hpp"
#include "net/channel.hpp"
#include "net/csma_mac.hpp"
#include "net/link_model.hpp"
#include "net/tdma_mac.hpp"
#include "node/stats.hpp"
#include "obs/metrics.hpp"
#include "scenario/scenario.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"
#include "storage/eeprom.hpp"

namespace {

std::uint64_t g_allocs = 0;
bool g_counting = false;

void* counted_alloc(std::size_t size) noexcept {
  if (g_counting) ++g_allocs;
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_new(std::size_t size) {
  for (;;) {
    if (void* p = counted_alloc(size)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}

/// Heap allocations made while `fn` runs.
template <typename Fn>
std::uint64_t allocations_in(Fn&& fn) {
  const std::uint64_t before = g_allocs;
  g_counting = true;
  fn();
  g_counting = false;
  return g_allocs - before;
}

}  // namespace

// Every non-aligned form, so each allocation and its release go through the
// same malloc/free pair.
void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace mnp {
namespace {

// A whole MNP run, set-up included: 10x10, 5 segments, seed 1, empirical
// links. It makes about 0.03 allocations per transmission (the next test
// says where they go); one heap closure per transmission alone puts it
// above 1.
TEST(Allocations, MnpRunMakesUnderHalfAnAllocationPerTransmission) {
  harness::ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::kMnp;
  cfg.rows = 10;
  cfg.cols = 10;
  cfg.program_bytes = 5 * 128 * 22;
  cfg.seed = 1;
  cfg.empirical_links = true;
  harness::RunResult result;
  const std::uint64_t allocs =
      allocations_in([&] { result = harness::run_experiment(cfg); });
  ASSERT_TRUE(result.all_completed);
  ASSERT_GT(result.transmissions, 0u);
  const double per_tx = static_cast<double>(allocs) /
                        static_cast<double>(result.transmissions);
  EXPECT_LT(per_tx, 0.5) << allocs << " allocations over "
                         << result.transmissions << " transmissions";
}

// The same run with MNP's own hot path allocation-free: the forward vector
// reuses its words and the requester list is a flat vector. About 0.03
// allocations per transmission remain, nearly all set-up (2,505 over 76,433
// in a Release build; 3,755 while the MAC queue was a std::deque); a
// BigBitmap built per advertised segment and a std::set node per requester
// put it near 0.19.
TEST(Allocations, MnpRunMakesUnderATenthOfAnAllocationPerTransmission) {
  harness::ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::kMnp;
  cfg.rows = 10;
  cfg.cols = 10;
  cfg.program_bytes = 5 * 128 * 22;
  cfg.seed = 1;
  cfg.empirical_links = true;
  harness::RunResult result;
  const std::uint64_t allocs =
      allocations_in([&] { result = harness::run_experiment(cfg); });
  ASSERT_TRUE(result.all_completed);
  ASSERT_GT(result.transmissions, 0u);
  const double per_tx = static_cast<double>(allocs) /
                        static_cast<double>(result.transmissions);
  EXPECT_LT(per_tx, 0.1) << allocs << " allocations over "
                         << result.transmissions << " transmissions";
}

// Deluge, MOAP and NCast on the same run. Each fills its data or coded
// packets from the frame pool's recycled payload buffers; while the pool
// took back every payload type but NCast's coded packets, NCast made about
// 0.79 allocations per transmission.
TEST(Allocations, BaselineRunsMakeUnderATenthOfAnAllocationPerTransmission) {
  for (const auto protocol : {harness::Protocol::kDeluge, harness::Protocol::kMoap,
                              harness::Protocol::kNcast}) {
    SCOPED_TRACE(harness::protocol_name(protocol));
    harness::ExperimentConfig cfg;
    cfg.protocol = protocol;
    cfg.rows = 10;
    cfg.cols = 10;
    cfg.program_bytes = 5 * 128 * 22;
    cfg.seed = 1;
    cfg.empirical_links = true;
    harness::RunResult result;
    const std::uint64_t allocs =
        allocations_in([&] { result = harness::run_experiment(cfg); });
    ASSERT_TRUE(result.all_completed);
    ASSERT_GT(result.transmissions, 0u);
    const double per_tx = static_cast<double>(allocs) /
                          static_cast<double>(result.transmissions);
    EXPECT_LT(per_tx, 0.1) << allocs << " allocations over "
                           << result.transmissions << " transmissions";
  }
}

// Channel rows keep their capacity across repairs. Eighteen motes cross
// the field five minutes into a 10x10 MNP run, dirtying every row they
// pass; each repair refills its row in place, so the run allocates about
// as often as the same run without them: 2,744 allocations against 2,605.
// While a repaired row that outgrew its vectors reallocated both at
// exactly its new size, the pair read 3,013 and 2,604.
TEST(Allocations, MovesRepairChannelRowsWithoutRegrowingThem) {
  const auto run = [](bool moves) {
    harness::ExperimentConfig cfg;
    cfg.protocol = harness::Protocol::kMnp;
    cfg.rows = 10;
    cfg.cols = 10;
    cfg.program_bytes = 5 * 128 * 22;
    cfg.seed = 1;
    cfg.empirical_links = true;
    // A scenario turns the progress journal on; the still run journals
    // too, so the two differ only in the moves.
    cfg.mnp.journal_progress = true;
    if (moves) {
      scenario::ScenarioBuilder b;
      for (net::NodeId id = 10; id < 100; id += 5) {
        const double corner = id % 2 ? 0.0 : 90.0;
        b.move(sim::sec(300 + id / 10), id, corner, 90.0 - corner,
               sim::sec(20));
      }
      cfg.scenario = b.build("movers");
    }
    harness::RunResult result;
    const std::uint64_t allocs =
        allocations_in([&] { result = harness::run_experiment(cfg); });
    EXPECT_TRUE(result.all_completed);
    return allocs;
  };
  const std::uint64_t still = run(false);
  const std::uint64_t moving = run(true);
  EXPECT_LE(moving, still + still / 10)
      << moving << " allocations with movers, " << still << " without";
}

// Unit-completion bookkeeping: 64 nodes each completing 16 units (an
// NCast image of 16 generations), then a snapshot of every node, allocate
// nothing. A per-node vector of completion times grew at 1, 2, 4, 8 and
// 16 entries and was copied by every snapshot: 6 allocations per node.
TEST(Allocations, UnitCompletionsAndNodeSnapshotsAllocateNothing) {
  constexpr net::NodeId kNodes = 64;
  constexpr std::uint16_t kUnits = 16;
  obs::MetricsRegistry metrics(kNodes);
  node::StatsCollector stats(metrics);
  std::uint64_t parents = 0;
  const std::uint64_t allocs = allocations_in([&] {
    for (net::NodeId id = 0; id < kNodes; ++id) {
      for (std::uint16_t unit = 1; unit <= kUnits; ++unit) {
        stats.on_segment_completed(id, unit, sim::sec(unit));
      }
    }
    for (net::NodeId id = 0; id < kNodes; ++id) {
      parents += stats.node(id).parent == -1 ? 1 : 0;
    }
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(parents, kNodes);
  EXPECT_EQ(metrics.counter_total("node.segments_completed"),
            std::uint64_t{kUnits} * kNodes);
}

// The progress journal, appended at every unit completion and replayed at
// every reboot: once its page exists, slots are read and built on the
// stack. Each slot read and each new record was a fresh vector, 150
// allocations for these 15 appends and 17 for the recovery.
TEST(Allocations, JournalAppendsAndRecoveryAllocateNothing) {
  storage::Eeprom eeprom;
  boot::ProgressJournal journal(eeprom);
  ASSERT_TRUE(journal.append(7, 4096, 1));  // allocates the journal's page
  bool appended = true;
  const std::uint64_t append_allocs = allocations_in([&] {
    for (std::uint16_t unit = 2; unit <= 16; ++unit) {
      appended = journal.append(7, 4096, unit) && appended;
    }
  });
  std::optional<boot::ProgressJournal::Recovered> recovered;
  const std::uint64_t recover_allocs =
      allocations_in([&] { recovered = journal.recover(); });
  EXPECT_TRUE(appended);
  EXPECT_EQ(append_allocs, 0u);
  EXPECT_EQ(recover_allocs, 0u);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(recovered->prefix, 16);
}

// A MAC's transmit queue: once warm, 1,000 frames through a CSMA MAC and
// through a TDMA MAC, in bursts of 10, allocate nothing. While the queue
// was a std::deque it allocated a 512-byte chunk per 64 pushes: 16
// allocations over these 1,000 frames on the CSMA MAC.
TEST(Allocations, MacQueuesAllocateNothingAfterWarmUp) {
  for (const bool tdma : {false, true}) {
    SCOPED_TRACE(tdma ? "TDMA" : "CSMA");
    sim::Simulator sim(1);
    net::Topology topo;
    topo.add({0.0, 0.0});
    topo.add({10.0, 0.0});
    net::DiskLinkModel links(topo, 15.0);
    obs::MetricsRegistry metrics(topo.size());
    net::Channel channel(sim, topo, links, metrics);
    energy::EnergyMeter m0, m1;
    net::Radio sender(0, sim.scheduler(), channel, m0);
    net::Radio receiver(1, sim.scheduler(), channel, m1);
    channel.register_radio(sender);
    channel.register_radio(receiver);
    std::uint64_t received = 0;
    receiver.set_receive_handler([&received](const net::Packet&) { ++received; });
    sender.turn_on();
    receiver.turn_on();
    std::unique_ptr<net::Mac> mac;
    if (tdma) {
      mac = std::make_unique<net::TdmaMac>(sender, sim.scheduler(),
                                           net::TdmaMac::Params{});
    } else {
      mac = std::make_unique<net::CsmaMac>(sender, sim.scheduler(),
                                           sim.fork_rng(7));
    }
    mac->attach_metrics(metrics);
    net::Packet adv;
    adv.payload = net::AdvertisementMsg{};
    const auto send_frames = [&](int frames) {
      for (int sent = 0; sent < frames; sent += 10) {
        for (int i = 0; i < 10; ++i) mac->send(adv);
        while (!mac->idle()) sim.run_until(sim.now() + sim::msec(100));
      }
    };
    send_frames(100);  // warm-up: frame pool, event queue, channel
    EXPECT_EQ(allocations_in([&] { send_frames(1000); }), 0u);
    EXPECT_EQ(mac->packets_sent(), 1100u);
    EXPECT_EQ(received, 1100u);
  }
}

// The event queue itself: once its heap and slot pool have grown to the
// peak, 10^5 posts of a capture as large as an action holds allocate
// nothing.
TEST(Allocations, FortyByteCapturePostsAllocateNothingAfterWarmUp) {
  struct Capture {
    std::uint64_t* sink;
    std::uint64_t a, b, c, d;
  };
  constexpr int kPosts = 100000;
  sim::Scheduler sched;
  std::uint64_t sink = 0;
  const auto post_all = [&] {
    for (int i = 0; i < kPosts; ++i) {
      const auto v = static_cast<std::uint64_t>(i);
      const Capture cap{&sink, v, v + 1, v + 2, v + 3};
      const auto action = [cap] { *cap.sink += cap.a + cap.b + cap.c + cap.d; };
      static_assert(sizeof(action) == 40);
      sched.post_at(sched.now() + i % 1000, action);
    }
    sched.run_all();
  };
  post_all();  // warm-up
  const std::uint64_t after_warm_up = sink;
  EXPECT_EQ(allocations_in(post_all), 0u);
  EXPECT_EQ(sink, 2 * after_warm_up);
  EXPECT_EQ(sched.executed_events(), 2u * kPosts);
}

}  // namespace
}  // namespace mnp
