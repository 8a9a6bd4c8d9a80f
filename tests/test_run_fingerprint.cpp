// Whole-run fingerprints: one 64-bit value per pinned run that changes
// when anything a run reports changes. The value is FNV-1a over every
// RunResult field (doubles by bit pattern) followed by the final chain of
// the determinism audit, which folds every executed event and every
// node's protocol state (DESIGN.md section 12). A refactor that claims
// "no behaviour change" must leave every constant below untouched; a
// change that alters behaviour on purpose updates them (the failure
// message prints the new value) and says why in CHANGES.md.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "harness/experiment.hpp"
#include "harness/observe.hpp"
#include "scenario/scenario_parser.hpp"
#include "sim/audit.hpp"

namespace mnp {
namespace {

using harness::Protocol;

class Fold {
 public:
  void add(std::uint64_t v) { h_ = sim::fnv1a(h_, v); }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(int v) { add(std::int64_t{v}); }
  void add(bool v) { add(std::uint64_t{v ? 1u : 0u}); }
  void add(double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(v));
    add(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = sim::kFnvOffset;
};

std::uint64_t fingerprint(const harness::RunResult& r, std::uint64_t chain) {
  Fold f;
  f.add(std::uint64_t{r.rows});
  f.add(std::uint64_t{r.cols});
  f.add(r.all_completed);
  f.add(std::uint64_t{r.completed_count});
  f.add(r.completion_time);
  f.add(r.measured_at);
  f.add(std::uint64_t{r.nodes.size()});
  for (const harness::NodeResult& n : r.nodes) {
    f.add(n.completion);
    f.add(n.active_radio);
    f.add(n.active_radio_after_first_adv);
    f.add(n.parent);
    f.add(n.became_sender);
    f.add(n.tx_total);
    f.add(n.rx_total);
    f.add(n.tx_data);
    f.add(n.tx_adv);
    f.add(n.tx_req);
    f.add(n.eeprom_writes);
    f.add(n.collisions_suffered);
    f.add(n.energy_nah);
    f.add(n.image_verified);
  }
  f.add(std::uint64_t{r.sender_order.size()});
  for (const net::NodeId id : r.sender_order) f.add(std::uint64_t{id});
  f.add(std::uint64_t{r.timeline.size()});
  for (const auto& [minute, row] : r.timeline) {
    f.add(minute);
    for (const std::uint64_t count : row) f.add(count);
  }
  f.add(r.transmissions);
  f.add(r.deliveries);
  f.add(r.collisions);
  f.add(r.bulk_overlaps);
  f.add(std::uint64_t{r.dead_nodes});
  f.add(r.scenario_injected);
  f.add(std::uint64_t{r.scenario_error.size()});
  for (const char c : r.scenario_error) {
    f.add(std::uint64_t{static_cast<unsigned char>(c)});
  }
  f.add(chain);
  return f.value();
}

/// Runs `cfg` with the auditor on (and no trace capture, whose samplers
/// would add events) and returns its fingerprint.
std::uint64_t run_fingerprint(const harness::ExperimentConfig& cfg) {
  harness::Observation obs(0);
  obs.with_trace = false;
  obs.with_audit = true;
  const harness::RunResult r = harness::run_experiment(cfg, &obs);
  EXPECT_TRUE(r.scenario_error.empty()) << r.scenario_error;
  return fingerprint(r, obs.audit.chain());
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

struct Pinned {
  Protocol protocol;
  std::uint64_t fingerprint;
};

void expect_pinned(harness::ExperimentConfig cfg, const Pinned& pin) {
  cfg.protocol = pin.protocol;
  const std::uint64_t got = run_fingerprint(cfg);
  EXPECT_EQ(got, pin.fingerprint)
      << harness::protocol_name(pin.protocol) << " fingerprint is now "
      << hex(got) << " (pinned " << hex(pin.fingerprint) << ")";
}

// Every protocol on a 5x5 grid, one MNP segment (2,816 bytes), seed 1,
// empirical links. XNP's base reaches only its radio neighbours, so its
// run ends incomplete when the base gives up querying.
TEST(RunFingerprint, EveryProtocolOnFiveByFive) {
  harness::ExperimentConfig cfg;
  cfg.rows = 5;
  cfg.cols = 5;
  cfg.set_program_segments(1);
  for (const Pinned& pin : {
           Pinned{Protocol::kMnp, 0x8a8c21524d2bf63aULL},
           Pinned{Protocol::kDeluge, 0x001b51c7aefa477dULL},
           Pinned{Protocol::kMoap, 0xc8f4640c6c025f43ULL},
           Pinned{Protocol::kXnp, 0x5a282acc520dce66ULL},
           Pinned{Protocol::kNcast, 0x9ee126ebd5a7146dULL},
       }) {
    expect_pinned(cfg, pin);
  }
}

// The committed churn scenario (crash wave with reboots, a partition and
// three moving motes) on its 10x10 grid with two MNP segments: covers
// journal writes, journal recovery on reboot and resumed downloads for
// every protocol that journals.
TEST(RunFingerprint, ChurnScenarioOnTenByTen) {
  const auto parsed = scenario::load_scenario_file(
      std::string(MNP_EXAMPLE_SCENARIO_DIR) + "/churn_partition_mobility.scn");
  ASSERT_TRUE(parsed.ok) << parsed.error;
  harness::ExperimentConfig cfg;
  cfg.rows = 10;
  cfg.cols = 10;
  cfg.set_program_segments(2);
  cfg.scenario = parsed.scenario;
  for (const Pinned& pin : {
           Pinned{Protocol::kMnp, 0xac8601abc53c306fULL},
           Pinned{Protocol::kDeluge, 0xd5e54e22cc7837a0ULL},
           Pinned{Protocol::kMoap, 0xf9a9118139a1b494ULL},
           Pinned{Protocol::kNcast, 0x60ef4dcbc0422c16ULL},
       }) {
    expect_pinned(cfg, pin);
  }
}

}  // namespace
}  // namespace mnp
