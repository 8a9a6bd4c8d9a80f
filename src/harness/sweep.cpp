#include "harness/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

#include "harness/observe.hpp"

namespace mnp::harness {

namespace {

std::size_t count_effective_senders(const RunResult& r) {
  std::set<int> parents;
  for (const auto& n : r.nodes) {
    if (n.parent >= 0) parents.insert(n.parent);
  }
  return parents.size();
}

void accumulate(SweepResult& sweep, RunResult r, bool keep_raw) {
  if (r.all_completed) {
    ++sweep.fully_completed_runs;
    sweep.completion_s.add(sim::to_seconds(r.completion_time));
  }
  sweep.avg_art_s.add(r.avg_active_radio_s());
  sweep.avg_art_post_adv_s.add(r.avg_active_radio_after_adv_s());
  sweep.avg_msgs.add(r.avg_messages_sent());
  sweep.collisions.add(static_cast<double>(r.collisions));
  sweep.bulk_overlaps.add(static_cast<double>(r.bulk_overlaps));
  sweep.energy_per_node_nah.add(r.total_energy_nah() /
                                static_cast<double>(r.nodes.size()));
  sweep.effective_senders.add(static_cast<double>(count_effective_senders(r)));
  if (keep_raw) sweep.raw.push_back(std::move(r));
}

/// Seeds an empty per-run Observation mirroring the sweep-level one (or a
/// bare audit-only one when the sweep is unobserved); only the first seed
/// records a trace, so the merged dropped_events count is that
/// representative trace's and the metrics stay trace-independent.
Observation seed_observation(const Observation* target, bool first,
                             bool audit) {
  Observation per_run(target != nullptr ? target->log.capacity() : 1);
  per_run.with_trace = target != nullptr && target->with_trace && first;
  per_run.energy_sample_interval =
      target != nullptr ? target->energy_sample_interval : 0;
  per_run.with_audit = audit || (target != nullptr && target->with_audit);
  return per_run;
}

void merge_observation(Observation& into, Observation&& from, bool first) {
  if (first) {
    into.metrics = std::move(from.metrics);
    into.log = std::move(from.log);
    into.counters = std::move(from.counters);
    into.node_count = from.node_count;
    if (from.with_audit) into.audit = std::move(from.audit);
    return;
  }
  // All seeds run the same config, so the registries share one schema.
  const bool merged = into.metrics.merge_from(from.metrics);
  assert(merged && "sweep seeds produced differing metric schemas");
  (void)merged;
}

}  // namespace

std::size_t resolve_sweep_jobs(std::size_t requested) {
  if (requested != 0) return requested;
  const char* env = std::getenv("MNP_SWEEP_JOBS");
  if (!env || !*env) return 1;
  const std::string value(env);
  const auto hw = [] {
    const unsigned n = std::thread::hardware_concurrency();
    return n ? static_cast<std::size_t>(n) : std::size_t{1};
  };
  if (value == "auto" || value == "0") return hw();
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(env, &end, 10);
  if (end == env || *end != '\0' || parsed == 0) return 1;
  return static_cast<std::size_t>(parsed);
}

std::size_t effective_sweep_jobs(std::size_t resolved, std::size_t runs,
                                 std::size_t hardware,
                                 bool allow_oversubscribe) {
  std::size_t jobs = std::min(std::max<std::size_t>(resolved, 1), runs);
  if (!allow_oversubscribe) {
    // Seeds are CPU-bound with no I/O to overlap, so threads beyond the
    // core count only add context switches (jobs=2/4 measured 0.82x/0.87x
    // of sequential on a 1-core host).
    jobs = std::min(jobs, std::max<std::size_t>(hardware, 1));
  }
  return jobs;
}

SweepResult run_sweep(ExperimentConfig cfg, std::size_t runs,
                      std::uint64_t first_seed, const SweepOptions& options) {
  SweepResult sweep;
  sweep.runs = runs;
  if (runs == 0) return sweep;

  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t jobs = effective_sweep_jobs(
      resolve_sweep_jobs(options.jobs), runs,
      hw ? static_cast<std::size_t>(hw) : 1, options.allow_oversubscribe);

  const bool audit = options.audit_chains != nullptr;
  if (audit) options.audit_chains->assign(runs, 0);
  const bool per_run_obs = options.observe != nullptr || audit;

  if (jobs <= 1) {
    for (std::size_t i = 0; i < runs; ++i) {
      cfg.seed = first_seed + i;
      if (per_run_obs) {
        Observation per_run = seed_observation(options.observe, i == 0, audit);
        RunResult r = run_experiment(cfg, &per_run);
        if (audit) (*options.audit_chains)[i] = per_run.audit.chain();
        if (options.observe) {
          merge_observation(*options.observe, std::move(per_run), i == 0);
        }
        accumulate(sweep, std::move(r), options.keep_raw);
      } else {
        accumulate(sweep, run_experiment(cfg), options.keep_raw);
      }
    }
    return sweep;
  }

  // Fan the seeds out over a worker pool. Each worker claims the next
  // unstarted seed, builds a fully private Simulator (run_experiment shares
  // nothing mutable across runs) and deposits the result in its seed's
  // slot. Aggregation below walks the slots in seed order, so the merged
  // statistics are bit-identical to the jobs=1 path.
  std::vector<RunResult> results(runs);
  std::vector<Observation> observations;
  if (per_run_obs) {
    observations.reserve(runs);
    for (std::size_t i = 0; i < runs; ++i) {
      observations.push_back(seed_observation(options.observe, i == 0, audit));
    }
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= runs || failed.load(std::memory_order_relaxed)) return;
      ExperimentConfig run_cfg = cfg;
      run_cfg.seed = first_seed + i;
      try {
        results[i] = run_experiment(
            run_cfg, per_run_obs ? &observations[i] : nullptr);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(jobs);
  for (std::size_t j = 0; j < jobs; ++j) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);

  // Seed-order merge on the calling thread: the same accumulation
  // sequence as jobs=1, hence byte-identical exports.
  for (std::size_t i = 0; i < runs; ++i) {
    if (audit) (*options.audit_chains)[i] = observations[i].audit.chain();
    if (options.observe) {
      merge_observation(*options.observe, std::move(observations[i]), i == 0);
    }
    accumulate(sweep, std::move(results[i]), options.keep_raw);
  }
  return sweep;
}

SweepResult run_sweep(ExperimentConfig cfg, std::size_t runs,
                      std::uint64_t first_seed, bool keep_raw) {
  SweepOptions options;
  options.jobs = 0;  // defer to MNP_SWEEP_JOBS
  options.keep_raw = keep_raw;
  return run_sweep(std::move(cfg), runs, first_seed, options);
}

std::string format_stat(const util::RunningStats& s, int precision) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%.*f +/- %.*f [%.*f, %.*f]", precision,
                s.mean(), precision, s.stddev(), precision, s.min(), precision,
                s.max());
  return buf;
}

}  // namespace mnp::harness
