// Micro-benchmarks of the simulator substrate (google-benchmark): event
// scheduler throughput (including cancel-heavy churn), bitmap operations,
// channel delivery fan-out with and without the neighbor cache, and whole
// disseminations (small and 30x30 large-grid) as macro sanity numbers.
//
// Beyond the google-benchmark suite, `bench_micro --perf-json[=DIR]` runs
// a deterministic perf-tracking harness instead and writes machine-
// readable BENCH_channel.json (cached vs. brute-force channel hot path on
// a 30x30 grid), BENCH_packet.json (dense shared-frame delivery and the
// frame pool's allocation counter) and BENCH_sweep.json (run_sweep jobs=1
// vs. jobs=2/4 plus the bit-identical-stats check). Those files are
// committed so the perf trajectory is visible across PRs.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "energy/energy_meter.hpp"
#include "harness/experiment.hpp"
#include "harness/sweep.hpp"
#include "net/channel.hpp"
#include "net/link_model.hpp"
#include "net/packet.hpp"
#include "net/radio.hpp"
#include "net/topology.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"
#include "trace/event_log.hpp"
#include "util/bitmap.hpp"

namespace {

using namespace mnp;

// --- shared channel fixture ------------------------------------------------

/// A rows x rows grid with every radio listening; link model and cache
/// mode are configurable so the fast path and its oracle time the exact
/// same workload. `range` widens the disk radius (denser fan-out).
struct ChannelStack {
  ChannelStack(std::size_t rows, bool neighbor_cache, bool empirical,
               double range = 25.0)
      : sim(1), topo(net::Topology::grid(rows, rows, 10.0)) {
    if (empirical) {
      net::EmpiricalLinkModel::Params lp;
      links = std::make_unique<net::EmpiricalLinkModel>(topo, lp,
                                                        sim.fork_rng(0x11A7ULL));
    } else {
      links = std::make_unique<net::DiskLinkModel>(topo, range);
    }
    net::Channel::Params cp;
    cp.neighbor_cache = neighbor_cache;
    channel = std::make_unique<net::Channel>(sim, topo, *links, cp);
    const std::size_t n = rows * rows;
    for (std::size_t i = 0; i < n; ++i) {
      meters.push_back(std::make_unique<energy::EnergyMeter>());
      radios.push_back(std::make_unique<net::Radio>(
          static_cast<net::NodeId>(i), sim.scheduler(), *channel, *meters[i]));
      channel->register_radio(*radios[i]);
      radios[i]->turn_on();
    }
  }

  void broadcast_from(net::NodeId src, const net::Packet& pkt) {
    radios[src]->start_transmission(pkt);
    sim.run_until(sim.now() + sim::sec(1));
  }

  sim::Simulator sim;
  net::Topology topo;
  std::unique_ptr<net::LinkModel> links;
  std::unique_ptr<net::Channel> channel;
  std::vector<std::unique_ptr<energy::EnergyMeter>> meters;
  std::vector<std::unique_ptr<net::Radio>> radios;
};

net::Packet data_packet() {
  net::Packet pkt;
  net::DataMsg d;
  d.payload.assign(22, 1);
  pkt.payload = std::move(d);
  return pkt;
}

// --- scheduler -------------------------------------------------------------

void BM_SchedulerScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Scheduler s;
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      s.schedule_at(static_cast<sim::Time>(i % 997), [&sum, i] { sum += i; });
    }
    s.run_all();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchedulerScheduleRun)->Arg(1024)->Arg(16384);

void BM_SchedulerPostRun(benchmark::State& state) {
  // The fire-and-forget fast path: no cancellation slot bookkeeping.
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Scheduler s;
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      s.post_at(static_cast<sim::Time>(i % 997), [&sum, i] { sum += i; });
    }
    s.run_all();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchedulerPostRun)->Arg(16384);

void BM_SchedulerCancelledTombstones(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Scheduler s;
    std::vector<sim::EventHandle> handles;
    handles.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      handles.push_back(s.schedule_at(static_cast<sim::Time>(i), [] {}));
    }
    for (std::size_t i = 0; i < n; i += 2) handles[i].cancel();
    s.run_all();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchedulerCancelledTombstones)->Arg(16384);

void BM_SchedulerCancelHeavyChurn(benchmark::State& state) {
  // MNP cancels most of the timers it arms (backoffs superseded by carrier
  // events, reply timers satisfied early). Model that churn: repeatedly arm
  // a batch of timers, cancel 90% of them, and let the rest fire. The slot
  // free-list + tombstone compaction must keep this allocation-free and
  // O(live), not O(ever-cancelled).
  const auto batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Scheduler s;
    std::vector<sim::EventHandle> handles;
    handles.reserve(batch);
    for (int round = 0; round < 10; ++round) {
      handles.clear();
      for (std::size_t i = 0; i < batch; ++i) {
        handles.push_back(
            s.schedule_after(static_cast<sim::Time>(1 + i % 50), [] {}));
      }
      for (std::size_t i = 0; i < batch; ++i) {
        if (i % 10 != 0) handles[i].cancel();
      }
      s.run_until(s.now() + 100);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch) * 10);
}
BENCHMARK(BM_SchedulerCancelHeavyChurn)->Arg(1024)->Arg(8192);

// --- util ------------------------------------------------------------------

void BM_BitmapUnionCount(benchmark::State& state) {
  util::Bitmap a = util::Bitmap::all_set(128);
  util::Bitmap b(128);
  for (std::size_t i = 0; i < 128; i += 3) b.set(i);
  for (auto _ : state) {
    util::Bitmap c = a;
    c |= b;
    benchmark::DoNotOptimize(c.count());
    benchmark::DoNotOptimize(c.find_first_set(64));
  }
}
BENCHMARK(BM_BitmapUnionCount);

void BM_EventLogRecord(benchmark::State& state) {
  // Steady-state trace recording: the ring is at capacity, so every record
  // is an overwrite — no allocation, no string construction.
  trace::EventLog log(4096);
  std::uint64_t i = 0;
  for (auto _ : state) {
    log.record(static_cast<sim::Time>(i), 3, trace::EventKind::kPacketSent,
               std::string_view("Data"));
    log.record(static_cast<sim::Time>(i), 3,
               trace::EventKind::kSegmentCompleted, i % 5);
    ++i;
  }
  benchmark::DoNotOptimize(log.dropped());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_EventLogRecord);

// --- channel ---------------------------------------------------------------

void channel_broadcast_bench(benchmark::State& state, bool cached) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  ChannelStack stack(rows, cached, /*empirical=*/false);
  const net::Packet pkt = data_packet();
  const net::NodeId center = static_cast<net::NodeId>(rows * rows / 2);
  for (auto _ : state) {
    stack.broadcast_from(center, pkt);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_ChannelBroadcastFanout(benchmark::State& state) {
  channel_broadcast_bench(state, /*cached=*/true);
}
BENCHMARK(BM_ChannelBroadcastFanout)->Arg(10)->Arg(20)->Arg(30);

void BM_ChannelBroadcastBruteForce(benchmark::State& state) {
  // The pre-neighbor-cache reference path, for speedup bookkeeping.
  channel_broadcast_bench(state, /*cached=*/false);
}
BENCHMARK(BM_ChannelBroadcastBruteForce)->Arg(10)->Arg(20)->Arg(30);

void BM_FrameDeliveryShared(benchmark::State& state) {
  // Delivery fan-out: one data broadcast heard by ~60 listeners (45 ft
  // disk on a 10 ft grid), every receiver handed the same shared frame.
  const auto rows = static_cast<std::size_t>(state.range(0));
  ChannelStack stack(rows, /*neighbor_cache=*/true, /*empirical=*/false,
                     /*range=*/45.0);
  const net::Packet pkt = data_packet();
  const net::NodeId center = static_cast<net::NodeId>(rows * rows / 2);
  for (auto _ : state) {
    stack.broadcast_from(center, pkt);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FrameDeliveryShared)->Arg(30);

// --- end-to-end ------------------------------------------------------------

void BM_EndToEndSmallDissemination(benchmark::State& state) {
  for (auto _ : state) {
    harness::ExperimentConfig cfg;
    cfg.rows = 4;
    cfg.cols = 4;
    cfg.set_program_segments(1);
    cfg.seed = 5;
    const auto r = harness::run_experiment(cfg);
    benchmark::DoNotOptimize(r.completion_time);
  }
}
BENCHMARK(BM_EndToEndSmallDissemination)->Unit(benchmark::kMillisecond);

void BM_EndToEndLargeGrid(benchmark::State& state) {
  // 30x30 (beyond the paper's 20x20 TOSSIM runs), one segment: the number
  // that tracks whether the simulator scales to production-size grids.
  for (auto _ : state) {
    harness::ExperimentConfig cfg;
    cfg.rows = 30;
    cfg.cols = 30;
    cfg.set_program_segments(1);
    cfg.seed = 5;
    const auto r = harness::run_experiment(cfg);
    benchmark::DoNotOptimize(r.completion_time);
  }
}
BENCHMARK(BM_EndToEndLargeGrid)->Unit(benchmark::kMillisecond)->Iterations(1);

// --- perf-tracking JSON mode ----------------------------------------------

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Times `packets` center broadcasts on a rows x rows empirical-links grid.
double time_channel_broadcasts(std::size_t rows, int packets, bool cached) {
  ChannelStack stack(rows, cached, /*empirical=*/true);
  const net::Packet pkt = data_packet();
  const net::NodeId center = static_cast<net::NodeId>(rows * rows / 2);
  stack.broadcast_from(center, pkt);  // warmup: materializes the cache
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < packets; ++i) stack.broadcast_from(center, pkt);
  return ms_since(start);
}

struct DeliveryTiming {
  double ms = 0.0;
  std::uint64_t deliveries = 0;
  std::uint64_t node_allocs = 0;
};

/// Times `packets` dense broadcasts (45 ft disk => ~60 listeners each) on
/// a rows x rows grid, after one warmup broadcast.
DeliveryTiming time_frame_deliveries(std::size_t rows, int packets) {
  ChannelStack stack(rows, /*neighbor_cache=*/true, /*empirical=*/false,
                     /*range=*/45.0);
  const net::Packet pkt = data_packet();
  const net::NodeId center = static_cast<net::NodeId>(rows * rows / 2);
  stack.broadcast_from(center, pkt);  // warmup: fills neighbor cache + pool
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < packets; ++i) stack.broadcast_from(center, pkt);
  DeliveryTiming t;
  t.ms = ms_since(start);
  t.deliveries = stack.channel->deliveries();
  t.node_allocs = stack.channel->frame_pool().node_allocations();
  return t;
}

struct SweepTiming {
  double ms = 0.0;
  harness::SweepResult result;
};

SweepTiming time_sweep(std::size_t jobs) {
  harness::ExperimentConfig cfg;
  cfg.rows = 6;
  cfg.cols = 6;
  cfg.set_program_segments(1);
  cfg.max_sim_time = sim::hours(1);
  harness::SweepOptions options;
  options.jobs = jobs;
  SweepTiming t;
  const auto start = std::chrono::steady_clock::now();
  t.result = harness::run_sweep(cfg, 8, /*first_seed=*/1, options);
  t.ms = ms_since(start);
  return t;
}

bool stats_identical(const harness::SweepResult& a,
                     const harness::SweepResult& b) {
  return a.fully_completed_runs == b.fully_completed_runs &&
         a.completion_s.sum() == b.completion_s.sum() &&
         a.avg_msgs.sum() == b.avg_msgs.sum() &&
         a.collisions.sum() == b.collisions.sum() &&
         a.energy_per_node_nah.sum() == b.energy_per_node_nah.sum();
}

int run_perf_json(const std::string& dir) {
  const std::size_t rows = 30;
  const int packets = 400;
  std::printf("perf-json: timing channel broadcasts on a %zux%zu grid...\n",
              rows, rows);
  const double cached_ms = time_channel_broadcasts(rows, packets, true);
  const double brute_ms = time_channel_broadcasts(rows, packets, false);
  const double channel_speedup = cached_ms > 0.0 ? brute_ms / cached_ms : 0.0;
  {
    const std::string path = dir + "/BENCH_channel.json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"benchmark\": \"channel_broadcast\",\n"
                 "  \"grid\": \"%zux%zu\",\n"
                 "  \"links\": \"empirical\",\n"
                 "  \"packets\": %d,\n"
                 "  \"neighbor_cache_ms\": %.3f,\n"
                 "  \"brute_force_ms\": %.3f,\n"
                 "  \"speedup\": %.2f\n"
                 "}\n",
                 rows, rows, packets, cached_ms, brute_ms, channel_speedup);
    std::fclose(f);
    std::printf("perf-json: %s (speedup %.2fx)\n", path.c_str(),
                channel_speedup);
  }

  std::printf("perf-json: timing shared-frame delivery on a %zux%zu grid...\n",
              rows, rows);
  const int delivery_packets = 2000;
  // The pool recycles one frame node for every broadcast: the warmup
  // allocates it and the 2000 timed broadcasts allocate nothing.
  const std::uint64_t max_node_allocs = 1;
  const DeliveryTiming shared = time_frame_deliveries(rows, delivery_packets);
  {
    const std::string path = dir + "/BENCH_packet.json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"benchmark\": \"packet_path\",\n"
                 "  \"grid\": \"%zux%zu\",\n"
                 "  \"delivery_packets\": %d,\n"
                 "  \"deliveries_per_packet\": %.1f,\n"
                 "  \"shared_delivery_ms\": %.3f,\n"
                 "  \"shared_node_allocations\": %llu\n"
                 "}\n",
                 rows, rows, delivery_packets,
                 static_cast<double>(shared.deliveries) /
                     (delivery_packets + 1),
                 shared.ms,
                 static_cast<unsigned long long>(shared.node_allocs));
    std::fclose(f);
    std::printf("perf-json: %s (%llu frame-node allocations for %d "
                "broadcasts)\n",
                path.c_str(),
                static_cast<unsigned long long>(shared.node_allocs),
                delivery_packets + 1);
  }

  std::printf("perf-json: timing 8-seed sweep at jobs=1/2/4...\n");
  const SweepTiming j1 = time_sweep(1);
  const SweepTiming j2 = time_sweep(2);
  const SweepTiming j4 = time_sweep(4);
  const bool identical =
      stats_identical(j1.result, j2.result) && stats_identical(j1.result, j4.result);
  {
    const std::string path = dir + "/BENCH_sweep.json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t hw_clamp = hw ? hw : 1;
    std::fprintf(f,
                 "{\n"
                 "  \"benchmark\": \"parallel_sweep\",\n"
                 "  \"config\": \"MNP 6x6 grid, 1 segment, 8 seeds\",\n"
                 "  \"hardware_concurrency\": %u,\n"
                 "  \"effective_jobs2\": %zu,\n"
                 "  \"effective_jobs4\": %zu,\n"
                 "  \"jobs1_ms\": %.3f,\n"
                 "  \"jobs2_ms\": %.3f,\n"
                 "  \"jobs4_ms\": %.3f,\n"
                 "  \"speedup_jobs2\": %.2f,\n"
                 "  \"speedup_jobs4\": %.2f,\n"
                 "  \"stats_bit_identical\": %s\n"
                 "}\n",
                 hw, harness::effective_sweep_jobs(2, 8, hw_clamp, false),
                 harness::effective_sweep_jobs(4, 8, hw_clamp, false),
                 j1.ms, j2.ms, j4.ms,
                 j2.ms > 0.0 ? j1.ms / j2.ms : 0.0,
                 j4.ms > 0.0 ? j1.ms / j4.ms : 0.0,
                 identical ? "true" : "false");
    std::fclose(f);
    std::printf("perf-json: %s (jobs=4 speedup %.2fx, identical=%s)\n",
                path.c_str(), j4.ms > 0.0 ? j1.ms / j4.ms : 0.0,
                identical ? "true" : "false");
  }
  if (!identical) {
    std::fprintf(stderr, "perf-json: PARALLEL SWEEP DIVERGED FROM jobs=1\n");
    return 1;
  }
  if (channel_speedup < 3.0) {
    std::fprintf(stderr,
                 "perf-json: channel speedup %.2fx below the 3x target\n",
                 channel_speedup);
    return 1;
  }
  if (shared.node_allocs > max_node_allocs) {
    std::fprintf(stderr,
                 "perf-json: %llu frame-node allocations for %d broadcasts "
                 "(at most %llu: the pool must recycle)\n",
                 static_cast<unsigned long long>(shared.node_allocs),
                 delivery_packets + 1,
                 static_cast<unsigned long long>(max_node_allocs));
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (!std::strncmp(argv[i], "--perf-json", 11)) {
      const char* eq = std::strchr(argv[i], '=');
      return run_perf_json(eq ? eq + 1 : ".");
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
