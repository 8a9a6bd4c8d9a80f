// Tests for the runtime half of the determinism audit toolchain
// (DESIGN.md section 12): the scheduler's incremental pending-event
// signature, sim::Audit state-hash chains, the tie-break hazard probe,
// sweep-level chain collection and the mnp_bisect log round-trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "bisect.hpp"
#include "harness/observe.hpp"
#include "harness/sweep.hpp"
#include "sim/audit.hpp"
#include "sim/scheduler.hpp"

namespace mnp {
namespace {

// --- scheduler pending signature --------------------------------------------

TEST(PendingSignature, XorsTagsInAndOut) {
  sim::Scheduler only_a;
  only_a.schedule_at(5, [] {});
  const std::uint64_t sig_a = only_a.pending_signature();
  EXPECT_NE(sig_a, 0u);

  // Same insertion history for `a`, so cancelling `b` must restore exactly
  // the one-event signature — the XOR discipline, not a recomputation.
  sim::Scheduler both;
  both.schedule_at(5, [] {});
  auto b = both.schedule_at(9, [] {});
  EXPECT_NE(both.pending_signature(), sig_a);
  b.cancel();
  EXPECT_EQ(both.pending_signature(), sig_a);

  // Executing the remaining event drains the signature to zero.
  both.run_all();
  EXPECT_EQ(both.pending_signature(), 0u);
}

TEST(PendingSignature, TombstoneSweepDoesNotDoubleCount) {
  sim::Scheduler sched;
  // Many cancellations, each removing its entry from the queue: every tag
  // must leave the signature exactly once.
  std::vector<sim::EventHandle> handles;
  for (int i = 0; i < 32; ++i) {
    handles.push_back(sched.schedule_at(10 + i, [] {}));
  }
  auto keeper = sched.schedule_at(100, [] {});
  const std::uint64_t all = sched.pending_signature();
  for (auto& h : handles) h.cancel();
  const std::uint64_t after_cancel = sched.pending_signature();
  EXPECT_NE(after_cancel, all);
  // Querying the queue must not move the signature again.
  EXPECT_FALSE(sched.empty());
  EXPECT_EQ(sched.pending_signature(), after_cancel);
  keeper.cancel();
  EXPECT_EQ(sched.pending_signature(), 0u);
}

// --- sim::Audit over a scripted scheduler -----------------------------------

/// Probe over a plain vector of digests the test mutates directly.
class VecProbe final : public sim::AuditProbe {
 public:
  explicit VecProbe(const std::vector<std::uint64_t>* v) : v_(v) {}
  std::size_t node_count() const override { return v_->size(); }
  void node_digests(std::uint64_t* out) override {
    std::copy(v_->begin(), v_->end(), out);
  }

 private:
  const std::vector<std::uint64_t>* v_;
};

/// Runs a tiny scripted schedule: two same-time events at t=10 whose
/// order matters (when `order_sensitive`) or commutes (when not), plus a
/// later event, auditing every boundary.
std::vector<sim::AuditRecord> scripted_run(sim::TieBreak tb,
                                           bool order_sensitive) {
  sim::Scheduler sched;
  sim::Audit audit;
  std::vector<std::uint64_t> state{0};
  VecProbe probe(&state);
  audit.set_probe(&probe);
  audit.set_node_sweep_stride(1);
  sched.set_audit(&audit);
  sched.set_tie_break(tb);
  if (order_sensitive) {
    sched.post_at(10, [&] { state[0] = state[0] * 3 + 1; });
    sched.post_at(10, [&] { state[0] += 5; });
  } else {
    sched.post_at(10, [&] { state[0] += 1; });
    sched.post_at(10, [&] { state[0] += 1; });
  }
  sched.post_at(20, [&] { state[0] ^= 7; });
  sched.run_all();
  return audit.records();
}

TEST(Audit, IdenticalRunsProduceIdenticalChains) {
  const auto a = scripted_run(sim::TieBreak::kFifo, true);
  const auto b = scripted_run(sim::TieBreak::kFifo, true);
  ASSERT_EQ(a.size(), 3u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].chain, b[i].chain) << "at event " << i;
  }
  EXPECT_FALSE(sim::first_divergence(a, b).diverged);
}

TEST(Audit, TieBreakFlipExposesOrderSensitivePair) {
  const auto fifo = scripted_run(sim::TieBreak::kFifo, true);
  const auto lifo = scripted_run(sim::TieBreak::kLifo, true);
  const auto d = sim::first_divergence(fifo, lifo);
  ASSERT_TRUE(d.diverged);
  EXPECT_FALSE(d.length_mismatch);
  // The swapped pair runs at t=10: the very first event already differs.
  EXPECT_EQ(d.index, 0u);
  EXPECT_EQ(d.a.time, 10);
  EXPECT_EQ(d.b.time, 10);
  // Both components move: a different event executed (pending set) and it
  // left a different node state behind.
  EXPECT_NE(d.a.pending, d.b.pending);
  EXPECT_NE(d.a.nodes, d.b.nodes);
  // Each tie-break is still a total order: LIFO twice is self-identical.
  const auto lifo2 = scripted_run(sim::TieBreak::kLifo, true);
  EXPECT_FALSE(sim::first_divergence(lifo, lifo2).diverged);
}

TEST(Audit, CommutativePairDivergesInPendingComponentOnly) {
  // Swapping a commutative same-time pair still reorders *which* event
  // executes first (the pending signature sees it), but the node-state
  // signature must agree at every boundary — that distinction is what
  // separates a harmless reorder from a real tie-break hazard.
  const auto fifo = scripted_run(sim::TieBreak::kFifo, false);
  const auto lifo = scripted_run(sim::TieBreak::kLifo, false);
  ASSERT_EQ(fifo.size(), lifo.size());
  for (std::size_t i = 0; i < fifo.size(); ++i) {
    EXPECT_EQ(fifo[i].nodes, lifo[i].nodes) << "at event " << i;
  }
  const auto d = sim::first_divergence(fifo, lifo);
  ASSERT_TRUE(d.diverged);
  EXPECT_NE(d.a.pending, d.b.pending);
  EXPECT_EQ(d.a.nodes, d.b.nodes);
}

TEST(Audit, AttributesTheChangedNode) {
  sim::Scheduler sched;
  sim::Audit audit;
  std::vector<std::uint64_t> state{1, 2, 3};
  VecProbe probe(&state);
  audit.set_probe(&probe);
  audit.set_node_sweep_stride(1);
  sched.set_audit(&audit);
  // The first boundary seeds the digest cache without attribution, so the
  // mutation happens at the second event.
  sched.post_at(10, [] {});
  sched.post_at(20, [&] { state[2] = 99; });
  sched.post_at(30, [] {});
  sched.run_all();
  ASSERT_EQ(audit.records().size(), 3u);
  EXPECT_EQ(audit.records()[0].node, -1);  // cache seeding
  EXPECT_EQ(audit.records()[1].node, 2);   // state[2] moved
  EXPECT_EQ(audit.records()[2].node, -1);  // nothing moved
}

TEST(Audit, ResetRestartsTheChain) {
  const auto once = scripted_run(sim::TieBreak::kFifo, true);
  sim::Audit audit;
  std::vector<std::uint64_t> state{42};
  VecProbe probe(&state);
  audit.set_probe(&probe);
  audit.on_event(1, 0x1234, 0);
  audit.reset();
  EXPECT_TRUE(audit.records().empty());
  EXPECT_EQ(audit.chain(), sim::kFnvOffset);
  (void)once;
}

TEST(Audit, FirstDivergenceHandlesPrefixStreams) {
  auto a = scripted_run(sim::TieBreak::kFifo, true);
  auto b = a;
  b.pop_back();
  const auto d = sim::first_divergence(a, b);
  ASSERT_TRUE(d.diverged);
  EXPECT_TRUE(d.length_mismatch);
  EXPECT_EQ(d.index, b.size());
}

// --- full experiment + sweep ------------------------------------------------

harness::ExperimentConfig tiny() {
  harness::ExperimentConfig cfg;
  cfg.rows = 3;
  cfg.cols = 3;
  cfg.range_ft = 25.0;
  cfg.set_program_segments(1);
  cfg.max_sim_time = sim::hours(1);
  return cfg;
}

harness::Observation observed_run(harness::ExperimentConfig cfg) {
  harness::Observation obs;
  obs.with_trace = false;
  obs.energy_sample_interval = 0;
  obs.with_audit = true;
  harness::run_experiment(cfg, &obs);
  return obs;
}

TEST(Audit, ExperimentSameSeedSameChain) {
  const auto a = observed_run(tiny());
  const auto b = observed_run(tiny());
  ASSERT_FALSE(a.audit.records().empty());
  EXPECT_EQ(a.audit.records().size(), b.audit.records().size());
  EXPECT_EQ(a.audit.chain(), b.audit.chain());
  EXPECT_FALSE(
      sim::first_divergence(a.audit.records(), b.audit.records()).diverged);
}

TEST(Audit, ExperimentDifferentSeedsDiverge) {
  auto cfg = tiny();
  const auto a = observed_run(cfg);
  cfg.seed = cfg.seed + 1;
  const auto b = observed_run(cfg);
  EXPECT_NE(a.audit.chain(), b.audit.chain());
  EXPECT_TRUE(
      sim::first_divergence(a.audit.records(), b.audit.records()).diverged);
}

TEST(Audit, SweepChainsIdenticalForAnyJobsCount) {
  std::vector<std::uint64_t> sequential_chains, parallel_chains;
  harness::SweepOptions sequential;
  sequential.jobs = 1;
  sequential.audit_chains = &sequential_chains;
  harness::SweepOptions parallel;
  parallel.jobs = 4;
  parallel.allow_oversubscribe = true;
  parallel.audit_chains = &parallel_chains;

  harness::run_sweep(tiny(), 4, /*first_seed=*/20, sequential);
  harness::run_sweep(tiny(), 4, /*first_seed=*/20, parallel);

  ASSERT_EQ(sequential_chains.size(), 4u);
  EXPECT_EQ(sequential_chains, parallel_chains);
  // Distinct seeds must not collapse onto one chain.
  EXPECT_NE(sequential_chains[0], sequential_chains[1]);
}

// --- audit log round-trip through mnp_bisect --------------------------------

std::string log_text(const harness::ExperimentConfig& cfg,
                     const harness::Observation& obs) {
  std::ostringstream os;
  harness::write_audit_log(os, cfg, obs);
  return os.str();
}

TEST(Bisect, LogRoundTripsThroughTheParser) {
  const auto cfg = tiny();
  const auto obs = observed_run(cfg);
  std::istringstream is(log_text(cfg, obs));
  bisect::AuditLog parsed;
  std::string error;
  ASSERT_TRUE(bisect::parse_audit_log(is, &parsed, &error)) << error;
  EXPECT_EQ(parsed.seed, cfg.seed);
  EXPECT_EQ(parsed.nodes, obs.node_count);
  EXPECT_EQ(parsed.tie_break, "fifo");
  EXPECT_EQ(parsed.chain, obs.audit.chain());
  ASSERT_EQ(parsed.records.size(), obs.audit.records().size());
  for (std::size_t i = 0; i < parsed.records.size(); ++i) {
    const auto& p = parsed.records[i];
    const auto& r = obs.audit.records()[i];
    EXPECT_EQ(p.index, r.index);
    EXPECT_EQ(p.time, r.time);
    EXPECT_EQ(p.node, r.node);
    EXPECT_EQ(p.pending, r.pending);
    EXPECT_EQ(p.nodes, r.nodes);
    EXPECT_EQ(p.chain, r.chain);
  }
}

TEST(Bisect, ReportsIdenticalAndDivergedWithExitCodes) {
  auto cfg = tiny();
  const auto a = observed_run(cfg);
  cfg.seed = cfg.seed + 1;
  const auto b = observed_run(cfg);

  bisect::AuditLog log_a, log_b;
  std::string error;
  std::istringstream ia(log_text(tiny(), a)), ib(log_text(cfg, b));
  ASSERT_TRUE(bisect::parse_audit_log(ia, &log_a, &error)) << error;
  ASSERT_TRUE(bisect::parse_audit_log(ib, &log_b, &error)) << error;

  std::ostringstream same;
  EXPECT_EQ(bisect::report_divergence(same, log_a, log_a, "A", "B"), 0);
  EXPECT_NE(same.str().find("identical"), std::string::npos);

  std::ostringstream diff;
  EXPECT_EQ(bisect::report_divergence(diff, log_a, log_b, "A", "B"), 1);
  EXPECT_NE(diff.str().find("diverged at event"), std::string::npos);
  EXPECT_NE(diff.str().find("kind:"), std::string::npos);
}

TEST(Bisect, ParserRejectsMalformedAndTruncatedLogs) {
  bisect::AuditLog out;
  std::string error;

  std::istringstream no_header("meta seed 1\n");
  EXPECT_FALSE(bisect::parse_audit_log(no_header, &out, &error));
  EXPECT_NE(error.find("header"), std::string::npos);

  std::istringstream bad_count(
      "# mnp-audit v1\n"
      "meta seed 1 nodes 1 tie-break fifo events 2 chain 00000000000000aa\n"
      "rec 0 10 -1 0000000000000001 0000000000000002 00000000000000aa\n");
  EXPECT_FALSE(bisect::parse_audit_log(bad_count, &out, &error));
  EXPECT_NE(error.find("events"), std::string::npos);

  out = {};
  std::istringstream bad_chain(
      "# mnp-audit v1\n"
      "meta seed 1 nodes 1 tie-break fifo events 1 chain 00000000000000ff\n"
      "rec 0 10 -1 0000000000000001 0000000000000002 00000000000000aa\n");
  EXPECT_FALSE(bisect::parse_audit_log(bad_chain, &out, &error));
  EXPECT_NE(error.find("truncated"), std::string::npos);
}

}  // namespace
}  // namespace mnp
