// NCast baseline (DESIGN.md §13): the RLNC decoder in isolation, the
// coefficient-seed expansion contract, crash/reboot resume through the
// progress journal, and the determinism gates — audit chains must be
// bit-identical across --jobs counts and across the channel's grid-index
// fast path, even under scripted churn.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "baselines/ncast_node.hpp"
#include "boot/progress_journal.hpp"
#include "harness/experiment.hpp"
#include "harness/observe.hpp"
#include "harness/sweep.hpp"
#include "mnp/program_image.hpp"
#include "net/link_model.hpp"
#include "node/network.hpp"
#include "scenario/scenario.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "storage/eeprom.hpp"
#include "util/gf256.hpp"

namespace mnp {
namespace {

using baselines::NcastConfig;
using baselines::NcastNode;
using baselines::RlncDecoder;
using baselines::ncast_expand_coefficients;

constexpr std::uint16_t kProgramId = 7;

// ---------------------------------------------------------------------------
// Coefficient expansion: the 2-byte wire header must expand identically on
// both ends, and must never yield a useless all-zero vector.
// ---------------------------------------------------------------------------

TEST(NcastCoefficients, ExpansionIsPureAndNeverAllZero) {
  constexpr std::uint8_t k = 16;
  std::uint8_t a[k], b[k];
  for (std::uint16_t gen = 1; gen <= 8; ++gen) {
    for (std::uint32_t seed = 0; seed < 512; ++seed) {
      const auto s = static_cast<std::uint16_t>(seed);
      ncast_expand_coefficients(gen, s, k, a);
      ncast_expand_coefficients(gen, s, k, b);
      EXPECT_TRUE(std::equal(a, a + k, b)) << "gen=" << gen << " seed=" << s;
      bool any = false;
      for (std::uint8_t c : a) any = any || c != 0;
      EXPECT_TRUE(any) << "all-zero vector at gen=" << gen << " seed=" << s;
    }
  }
}

TEST(NcastCoefficients, GenerationSaltsTheStream) {
  // The same seed in different generations must not produce the same
  // coefficients, or a cross-generation replay would alias.
  constexpr std::uint8_t k = 16;
  std::uint8_t g1[k], g2[k];
  int distinct = 0;
  for (std::uint32_t seed = 0; seed < 256; ++seed) {
    const auto s = static_cast<std::uint16_t>(seed);
    ncast_expand_coefficients(1, s, k, g1);
    ncast_expand_coefficients(2, s, k, g2);
    if (!std::equal(g1, g1 + k, g2)) ++distinct;
  }
  EXPECT_GE(distinct, 250);
}

// ---------------------------------------------------------------------------
// RlncDecoder in isolation: round-trip, rank monotonicity, rejection of
// dependent packets.
// ---------------------------------------------------------------------------

/// Builds the coded symbol for (gen, seed) over `src` exactly the way
/// NcastNode::send_coded does: expand, then GF(256) accumulate.
std::vector<std::uint8_t> encode(std::uint16_t gen, std::uint16_t seed,
                                 const std::vector<std::vector<std::uint8_t>>& src) {
  const auto k = static_cast<std::uint8_t>(src.size());
  std::vector<std::uint8_t> coeff(k);
  ncast_expand_coefficients(gen, seed, k, coeff.data());
  std::vector<std::uint8_t> sym(src.front().size(), 0);
  for (std::uint8_t i = 0; i < k; ++i) {
    util::gf256::addmul_row(sym.data(), src[i].data(), sym.size(), coeff[i]);
  }
  return sym;
}

std::vector<std::vector<std::uint8_t>> random_sources(std::uint8_t k,
                                                      std::size_t bytes,
                                                      std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::vector<std::uint8_t>> src(k);
  for (auto& s : src) {
    s.resize(bytes);
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  return src;
}

TEST(RlncDecoderTest, DecodesFromRandomCombinationsWithMonotonicRank) {
  constexpr std::uint8_t k = 16;
  constexpr std::size_t kSymbolBytes = 22;
  const auto src = random_sources(k, kSymbolBytes, 0xDEC0DE);

  RlncDecoder dec;
  dec.reset(k, kSymbolBytes);
  EXPECT_EQ(dec.rank(), 0);
  EXPECT_FALSE(dec.complete());

  std::uint16_t seed = 0;
  std::uint8_t prev_rank = 0;
  int packets_fed = 0;
  while (!dec.complete()) {
    ASSERT_LT(packets_fed, 4 * k) << "rank stalled below k";
    std::vector<std::uint8_t> coeff(k);
    ncast_expand_coefficients(1, seed, k, coeff.data());
    const auto sym = encode(1, seed, src);
    const bool innovative = dec.insert(coeff.data(), sym.data(), sym.size());
    ++packets_fed;
    // Innovative exactly when the rank grew, and rank never regresses.
    EXPECT_EQ(innovative, dec.rank() == prev_rank + 1);
    EXPECT_GE(dec.rank(), prev_rank);
    prev_rank = dec.rank();
    ++seed;
  }
  EXPECT_EQ(dec.rank(), k);

  dec.decode();
  ASSERT_TRUE(dec.decoded());
  for (std::uint8_t i = 0; i < k; ++i) {
    const std::uint8_t* got = dec.source_packet(i);
    EXPECT_TRUE(std::equal(src[i].begin(), src[i].end(), got))
        << "source packet " << int(i) << " corrupted";
  }
  EXPECT_GT(dec.row_ops(), 0u);
}

TEST(RlncDecoderTest, RejectsReplayedAndDependentPackets) {
  constexpr std::uint8_t k = 8;
  constexpr std::size_t kSymbolBytes = 10;
  const auto src = random_sources(k, kSymbolBytes, 0x4E6B);

  RlncDecoder dec;
  dec.reset(k, kSymbolBytes);
  std::vector<std::uint8_t> coeff(k);
  ncast_expand_coefficients(3, 41, k, coeff.data());
  const auto sym = encode(3, 41, src);
  EXPECT_TRUE(dec.insert(coeff.data(), sym.data(), sym.size()));
  EXPECT_EQ(dec.rank(), 1);
  // An exact replay is linearly dependent by construction.
  EXPECT_FALSE(dec.insert(coeff.data(), sym.data(), sym.size()));
  EXPECT_EQ(dec.rank(), 1);
  // So is any scalar multiple of the same combination.
  std::vector<std::uint8_t> c2(coeff), s2(sym);
  util::gf256::mul_row(c2.data(), k, 7);
  util::gf256::mul_row(s2.data(), s2.size(), 7);
  EXPECT_FALSE(dec.insert(c2.data(), s2.data(), s2.size()));
  EXPECT_EQ(dec.rank(), 1);
}

TEST(RlncDecoderTest, HandlesShortLastGeneration) {
  // The tail generation of an image is usually shorter than k; the
  // decoder is sized to the real packet count, not zero-padded to 16.
  constexpr std::uint8_t k = 5;
  constexpr std::size_t kSymbolBytes = 22;
  const auto src = random_sources(k, kSymbolBytes, 0x7A11);

  RlncDecoder dec;
  dec.reset(k, kSymbolBytes);
  for (std::uint16_t seed = 100; !dec.complete(); ++seed) {
    ASSERT_LT(seed, 200);
    std::vector<std::uint8_t> coeff(k);
    ncast_expand_coefficients(2, seed, k, coeff.data());
    const auto sym = encode(2, seed, src);
    dec.insert(coeff.data(), sym.data(), sym.size());
  }
  dec.decode();
  for (std::uint8_t i = 0; i < k; ++i) {
    EXPECT_TRUE(std::equal(src[i].begin(), src[i].end(), dec.source_packet(i)));
  }
}

TEST(RlncDecoderTest, ResetRecyclesAcrossGenerations) {
  constexpr std::size_t kSymbolBytes = 22;
  RlncDecoder dec;
  for (std::uint16_t gen = 1; gen <= 3; ++gen) {
    const std::uint8_t k = gen == 3 ? 4 : 16;  // short tail on the last pass
    const auto src = random_sources(k, kSymbolBytes, 0xC0DE00 + gen);
    dec.reset(k, kSymbolBytes);
    EXPECT_EQ(dec.rank(), 0);
    EXPECT_FALSE(dec.decoded());
    for (std::uint16_t seed = 0; !dec.complete(); ++seed) {
      ASSERT_LT(seed, 100);
      std::vector<std::uint8_t> coeff(k);
      ncast_expand_coefficients(gen, seed, k, coeff.data());
      const auto sym = encode(gen, seed, src);
      dec.insert(coeff.data(), sym.data(), sym.size());
    }
    dec.decode();
    for (std::uint8_t i = 0; i < k; ++i) {
      EXPECT_TRUE(std::equal(src[i].begin(), src[i].end(), dec.source_packet(i)))
          << "gen=" << gen << " packet " << int(i);
    }
  }
}

// ---------------------------------------------------------------------------
// Full network: convergence and crash/reboot resume.
// ---------------------------------------------------------------------------

node::Network::LinkModelFactory disk_links(double range) {
  return [range](const net::Topology& topo) {
    return std::make_unique<net::DiskLinkModel>(topo, range);
  };
}

TEST(NcastReboot, NodeResumesFromJournaledGenerations) {
  sim::Simulator sim(14);
  node::Network network(sim, net::Topology::grid(3, 3, 10.0),
                        disk_links(15.0));
  NcastConfig nc;
  nc.journal_progress = true;
  const std::size_t bytes =
      std::size_t{3} * nc.generation_size * nc.payload_bytes;
  auto image = std::make_shared<const core::ProgramImage>(
      kProgramId, bytes, nc.generation_size, nc.payload_bytes);
  for (net::NodeId id = 0; id < network.size(); ++id) {
    network.node(id).set_application(
        id == 0 ? std::make_unique<NcastNode>(nc, image)
                : std::make_unique<NcastNode>(nc));
  }
  network.boot_all(sim::msec(50));

  auto* victim = dynamic_cast<NcastNode*>(network.node(8).application());
  ASSERT_NE(victim, nullptr);
  ASSERT_TRUE(sim.run_until_condition(sim::hours(1), [victim] {
    return victim->complete_gens() == 1;
  }));
  network.node(8).kill();

  // The generation was journaled before the crash.
  boot::ProgressJournal journal(network.node(8).eeprom());
  const auto rec = journal.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->program_id, kProgramId);
  EXPECT_EQ(rec->program_bytes, bytes);
  EXPECT_EQ(rec->units, (std::vector<std::uint16_t>{1}));

  sim.run_until(sim.now() + sim::sec(30));
  network.node(8).reboot();
  // RAM (decoder, rank, Trickle state) is gone; the completed-generation
  // prefix came back from EEPROM.
  EXPECT_EQ(victim->complete_gens(), 1);
  EXPECT_FALSE(victim->has_complete_image());

  ASSERT_TRUE(sim.run_until_condition(sim::hours(2), [&network] {
    return network.complete_image_count() == network.size();
  }));
  EXPECT_TRUE(image->matches(network.node(8).eeprom().read(0, bytes)));
}

TEST(NcastHarness, ConvergesByteExactThroughTheHarness) {
  harness::ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::kNcast;
  cfg.rows = 3;
  cfg.cols = 3;
  cfg.set_program_segments(2);
  cfg.max_sim_time = sim::hours(2);
  const auto r = harness::run_experiment(cfg);
  EXPECT_TRUE(r.all_completed)
      << "completed " << r.completed_count << "/" << r.nodes.size();
  EXPECT_EQ(r.verified_count(), r.nodes.size());
}

// ---------------------------------------------------------------------------
// Determinism gates under churn: same audit chain for any --jobs count and
// on the grid-backed neighbor cache vs. the brute-force oracle.
// ---------------------------------------------------------------------------

harness::ExperimentConfig churny_ncast() {
  harness::ExperimentConfig cfg;
  cfg.protocol = harness::Protocol::kNcast;
  cfg.rows = 3;
  cfg.cols = 3;
  cfg.range_ft = 25.0;
  cfg.set_program_segments(1);
  cfg.max_sim_time = sim::hours(1);
  cfg.scenario = scenario::ScenarioBuilder{}
                     .kill(sim::sec(20), 4, /*down_for=*/sim::sec(40))
                     .build("ncast-churn");
  return cfg;
}

TEST(NcastDeterminism, SweepChainsIdenticalForAnyJobsCountUnderChurn) {
  std::vector<std::uint64_t> sequential_chains, parallel_chains;
  harness::SweepOptions sequential;
  sequential.jobs = 1;
  sequential.audit_chains = &sequential_chains;
  harness::SweepOptions parallel;
  parallel.jobs = 4;
  parallel.allow_oversubscribe = true;
  parallel.audit_chains = &parallel_chains;

  harness::run_sweep(churny_ncast(), 4, /*first_seed=*/30, sequential);
  harness::run_sweep(churny_ncast(), 4, /*first_seed=*/30, parallel);

  ASSERT_EQ(sequential_chains.size(), 4u);
  EXPECT_EQ(sequential_chains, parallel_chains);
  EXPECT_NE(sequential_chains[0], sequential_chains[1]);
}

TEST(NcastDeterminism, GridIndexOnOffProducesIdenticalChains) {
  auto run_with_grid = [](bool cached) {
    auto cfg = churny_ncast();
    cfg.channel.neighbor_cache = cached;
    harness::Observation obs;
    obs.with_trace = false;
    obs.energy_sample_interval = 0;
    obs.with_audit = true;
    const auto r = harness::run_experiment(cfg, &obs);
    EXPECT_TRUE(r.all_completed);
    return obs;
  };
  const auto on = run_with_grid(true);
  const auto off = run_with_grid(false);
  ASSERT_FALSE(on.audit.records().empty());
  EXPECT_EQ(on.audit.records().size(), off.audit.records().size());
  EXPECT_EQ(on.audit.chain(), off.audit.chain());
}

}  // namespace
}  // namespace mnp
