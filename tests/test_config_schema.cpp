// The one config schema (DESIGN.md section 15): every row moves both
// manifests, the input surface is a pinned list of request keys and CLI
// flags, and input values are rejected instead of truncated, within
// bounds that a simulation runs at.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "harness/config_schema.hpp"
#include "harness/experiment.hpp"
#include "harness/observe.hpp"
#include "obs/json_writer.hpp"
#include "service/manifest.hpp"
#include "service/run_request.hpp"

namespace mnp {
namespace {

using harness::ConfigArg;
using harness::ConfigField;
using harness::ConfigOption;
using harness::ExperimentConfig;
using harness::FieldType;

/// The --metrics-out manifest of a run that never happened: the config
/// block is the only part that depends on `cfg`.
std::string metrics_manifest(const ExperimentConfig& cfg) {
  harness::Observation observation;
  std::ostringstream os;
  harness::write_run_manifest(os, cfg, cfg.seed, 1, observation);
  return os.str();
}

std::string config_json(const ExperimentConfig& cfg) {
  obs::JsonWriter w;
  w.begin_object();
  harness::write_config_fields(w, cfg);
  w.end_object();
  return w.take();
}

std::string real_text(double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, end);
}

/// A bound spelled the way the row's type spells values.
std::string bound_text(const ConfigField& f, double bound) {
  return f.type == FieldType::kReal
             ? real_text(bound)
             : std::to_string(static_cast<long long>(bound));
}

/// Sets any row, input or not, through the row's own parser.
bool assign(ExperimentConfig& cfg, std::string_view key,
            const std::string& value) {
  const ConfigField* f = harness::find_config_field(key);
  return f != nullptr && f->assign(*f, cfg, value);
}

/// A valid value; for a rendered row, one different from the current.
std::string perturbed(const ConfigField& f, const ExperimentConfig& cfg) {
  if (!f.rendered()) return bound_text(f, std::max(f.min, 1.0));
  const std::string now = f.text(cfg);
  switch (f.type) {
    case FieldType::kBool:
      return now == "true" ? "false" : "true";
    case FieldType::kChoice:
      for (std::size_t i = 0; i < f.choices.size(); ++i) {
        if (f.choices[i] == now) {
          return std::string(f.choices[(i + 1) % f.choices.size()]);
        }
      }
      return {};
    case FieldType::kInt:
    case FieldType::kTime: {
      const double v = std::stod(now);
      const double next = v + 1 <= f.max ? v + 1 : v - 1;
      return std::to_string(static_cast<long long>(next));
    }
    case FieldType::kReal: {
      const double v = std::stod(now);
      return real_text(v + 0.25 <= f.max ? v + 0.25 : v - 0.25);
    }
    case FieldType::kRealList:
      return now.empty() ? "0.5" : now + ",0.5";
  }
  return {};
}

/// Runs the CLI front end over `args` the way mnp_fleet does.
std::vector<ConfigOption> parse_cli(std::vector<std::string> args,
                                    ExperimentConfig* cfg) {
  args.insert(args.begin(), "cli");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  std::vector<ConfigOption> options;
  for (int i = 1; i < static_cast<int>(argv.size()); ++i) {
    std::string error;
    EXPECT_EQ(harness::apply_config_arg(*cfg, static_cast<int>(argv.size()),
                                        argv.data(), i, &options, &error),
              ConfigArg::kApplied)
        << argv[i] << ": " << error;
  }
  return options;
}

TEST(ConfigSchema, KeysAndFlagsAreUnique) {
  std::set<std::string> keys;
  std::set<std::string> flags;
  for (const ConfigField& f : harness::config_fields()) {
    EXPECT_TRUE(keys.insert(std::string(f.key)).second) << f.key;
    EXPECT_NE(f.assign, nullptr) << f.key;
    EXPECT_FALSE(f.help.empty()) << f.key;
    EXPECT_TRUE(f.rendered() || f.input) << f.key;
    EXPECT_EQ(f.type == FieldType::kTime,
              f.rendered() && f.key.ends_with("_us"))
        << f.key;
    if (!f.flag.empty()) {
      EXPECT_TRUE(f.input) << f.key;
      EXPECT_TRUE(flags.insert(std::string(f.flag)).second) << f.flag;
    }
    EXPECT_TRUE(f.flag_value.empty() || !f.flag.empty()) << f.key;
    EXPECT_EQ(harness::find_config_field(f.key), &f);
  }
  EXPECT_EQ(harness::find_config_field("no_such_knob"), nullptr);
}

// Rendering a knob does not make it an input. The request keys and CLI
// flags are this fixed list; widening it is a decision this test records.
TEST(ConfigSchema, InputSurfaceIsPinned) {
  std::set<std::string> keys;
  std::set<std::string> flags;
  for (const ConfigField& f : harness::config_fields()) {
    if (f.input) keys.insert(std::string(f.key));
    if (!f.flag.empty()) flags.insert(std::string(f.flag));
  }
  EXPECT_EQ(keys,
            (std::set<std::string>{
                "protocol", "mac", "tie_break", "rows", "cols", "spacing_ft",
                "base", "range_ft", "interference_factor", "empirical_links",
                "link_noise_stddev", "program_id", "program_bytes",
                "segments", "max_sim_time_s", "boot_jitter_ms", "pipelining",
                "duty_cycle", "query_update", "battery_aware"}));
  EXPECT_EQ(flags,
            (std::set<std::string>{
                "--protocol", "--mac", "--tie-break", "--rows", "--cols",
                "--spacing", "--range", "--disk-links", "--program-id",
                "--bytes", "--segments", "--max-sim-time-s",
                "--boot-jitter-ms", "--no-pipelining", "--duty-cycle",
                "--no-query-update", "--battery-aware"}));
}

TEST(ConfigSchema, EveryRenderedValueRoundTripsThroughItsText) {
  const ExperimentConfig defaults;
  for (const ConfigField& f : harness::config_fields()) {
    if (!f.rendered()) continue;
    ExperimentConfig cfg;
    ASSERT_TRUE(assign(cfg, f.key, f.text(defaults))) << f.key;
    EXPECT_EQ(config_json(cfg), config_json(defaults)) << f.key;
  }
}

// The exhaustive sensitivity test: every rendered row moves the
// --metrics-out manifest and the dedup hash.
TEST(ConfigSchema, EveryRowMovesBothManifests) {
  const ExperimentConfig base;
  const std::uint64_t hash = service::manifest_hash(base, 1);
  const std::string manifest = metrics_manifest(base);
  std::size_t rendered = 0;
  for (const ConfigField& f : harness::config_fields()) {
    if (!f.rendered()) continue;
    ++rendered;
    ExperimentConfig cfg = base;
    const std::string value = perturbed(f, base);
    ASSERT_TRUE(assign(cfg, f.key, value)) << f.key << "=" << value;
    EXPECT_NE(metrics_manifest(cfg), manifest) << f.key << "=" << value;
    EXPECT_NE(service::manifest_hash(cfg, 1), hash) << f.key << "=" << value;
  }
  // Knobs the hand-written manifests used to leave out.
  for (const char* key :
       {"mnp_sleep_multiplier", "mnp_adv_rounds_before_decision",
        "mnp_nap_between_advertisements", "mnp_update_missing_threshold",
        "mnp_lower_segment_priority_threshold",
        "mnp_estimate_neighborhood_completion", "ncast_tx_redundancy",
        "ncast_suppression_k", "ncast_max_request_rounds",
        "deluge_tau_low_us", "moap_publish_defer_us"}) {
    const ConfigField* f = harness::find_config_field(key);
    ASSERT_NE(f, nullptr) << key;
    EXPECT_TRUE(f->rendered()) << key;
  }
  EXPECT_GT(rendered, 80u);
}

TEST(ConfigSchema, UnitConversionsWriteTheirTargets) {
  const auto both = [](const char* key_a, const char* value_a,
                       const char* key_b, const char* value_b) {
    ExperimentConfig a, b;
    EXPECT_TRUE(assign(a, key_a, value_a)) << key_a;
    EXPECT_TRUE(assign(b, key_b, value_b)) << key_b;
    EXPECT_EQ(config_json(a), config_json(b)) << key_a << " vs " << key_b;
  };
  both("segments", "3", "program_bytes", "8448");  // 3 x 128 x 22
  both("max_sim_time_s", "900", "max_sim_time_us", "900000000");
  both("boot_jitter_ms", "250", "boot_jitter_us", "250000");
}

TEST(ConfigSchema, RejectsMalformedAndOutOfRangeValues) {
  const std::vector<ConfigOption> bad = {
      {"rows", "0"},
      {"rows", "12.5"},
      {"rows", "-1"},
      {"rows", "abc"},
      {"rows", ""},
      {"rows", " 12"},
      {"rows", "65536"},
      {"program_id", "70000"},  // would truncate into a uint16
      {"base", "65536"},
      {"duty_cycle", "1.5"},
      {"spacing_ft", "nan"},
      {"spacing_ft", "inf"},
      {"spacing_ft", "-3"},
      {"spacing_ft", "1e300"},  // grid cell coordinates would overflow
      {"range_ft", "0.5"},
      {"interference_factor", "1e9"},
      {"link_noise_stddev", "2"},
      {"program_bytes", "0"},
      {"max_sim_time_s", "0"},
      {"max_sim_time_s", "1e300"},  // overflows sim::Time
      {"boot_jitter_ms", "-1"},
      {"segments", "0"},
      {"segments", "187"},  // larger than the EEPROM
      {"protocol", "MNP"},
      {"empirical_links", "yes"},
  };
  const ExperimentConfig defaults;
  for (const auto& [key, value] : bad) {
    ExperimentConfig cfg;
    std::string error;
    EXPECT_FALSE(harness::apply_config_option(cfg, key, value, &error))
        << key << "=" << value;
    EXPECT_NE(error.find(key), std::string::npos) << error;
    EXPECT_EQ(config_json(cfg), config_json(defaults)) << key << "=" << value;
  }
  // A rendered knob that is not an input is as unknown as a typo.
  for (const char* key : {"no_such_knob", "mnp_sleep_multiplier",
                          "chan_neighbor_cache", "max_sim_time_us",
                          "battery_levels"}) {
    ExperimentConfig cfg;
    std::string error;
    EXPECT_FALSE(harness::apply_config_option(cfg, key, "1", &error)) << key;
    EXPECT_EQ(error, "unknown option '" + std::string(key) + "'");
  }
}

// CLI -> JSON request -> config reproduces the CLI's config exactly, for
// every flag at a non-default value, and a typed JSON value of each input
// builds what its text spelling builds.
TEST(ConfigSchema, CliToJsonToConfigRoundTrip) {
  const ExperimentConfig defaults;
  std::vector<std::string> args;
  for (const ConfigField& f : harness::config_fields()) {
    if (f.flag.empty()) continue;
    args.emplace_back(f.flag);
    if (f.flag_value.empty()) args.push_back(perturbed(f, defaults));
  }
  ExperimentConfig cli;
  const std::vector<ConfigOption> options = parse_cli(args, &cli);
  EXPECT_NE(config_json(cli), config_json(defaults));

  const auto parsed = service::parse_run_request_text(
      service::run_request_json(options, "", {5}));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(config_json(parsed.request.cfg), config_json(cli));
  EXPECT_EQ(service::canonical_manifest(parsed.request.cfg, 5),
            service::canonical_manifest(cli, 5));

  for (const ConfigField& f : harness::config_fields()) {
    if (!f.input) continue;
    const std::string text = perturbed(f, defaults);
    const std::string json =
        f.type == FieldType::kChoice ? "\"" + text + "\"" : text;
    const auto typed = service::parse_run_request_text(
        "{\"config\":{\"" + std::string(f.key) + "\":" + json + "}}");
    ASSERT_TRUE(typed.ok) << typed.error;
    ExperimentConfig expected;
    ASSERT_TRUE(assign(expected, f.key, text)) << f.key;
    EXPECT_EQ(config_json(typed.request.cfg), config_json(expected))
        << f.key;
  }
}

TEST(ConfigSchema, FlagsMatchTheirRequestKeys) {
  ExperimentConfig flags;
  parse_cli({"--spacing", "12", "--range", "30", "--bytes", "5000",
             "--no-pipelining", "--no-query-update", "--battery-aware",
             "--disk-links", "--duty-cycle", "0.5", "--max-sim-time-s", "100",
             "--boot-jitter-ms", "250"},
            &flags);
  ExperimentConfig keys;
  for (const auto& [key, value] : std::vector<ConfigOption>{
           {"spacing_ft", "12"},
           {"range_ft", "30"},
           {"program_bytes", "5000"},
           {"pipelining", "false"},
           {"query_update", "false"},
           {"battery_aware", "true"},
           {"empirical_links", "false"},
           {"duty_cycle", "0.5"},
           {"max_sim_time_s", "100"},
           {"boot_jitter_ms", "250"}}) {
    std::string error;
    ASSERT_TRUE(harness::apply_config_option(keys, key, value, &error))
        << error;
  }
  EXPECT_EQ(config_json(flags), config_json(keys));
  EXPECT_FALSE(keys.empirical_links);
  EXPECT_EQ(keys.max_sim_time, 100000000);
}

TEST(ConfigSchema, CliRejectsBadAndMissingValues) {
  ExperimentConfig cfg;
  std::string error;
  std::vector<std::string> args = {"cli", "--rows", "x",
                                   "--mnp-sleep-multiplier", "2", "--cols"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  const int argc = static_cast<int>(argv.size());

  int i = 1;
  EXPECT_EQ(harness::apply_config_arg(cfg, argc, argv.data(), i, nullptr,
                                      &error),
            ConfigArg::kInvalid);
  EXPECT_NE(error.find("rows"), std::string::npos);
  i = 5;
  EXPECT_EQ(harness::apply_config_arg(cfg, argc, argv.data(), i, nullptr,
                                      &error),
            ConfigArg::kInvalid);
  EXPECT_EQ(error, "--cols requires a value");
  for (const int at : {2, 3}) {  // a stray value; a knob that is no flag
    i = at;
    EXPECT_EQ(harness::apply_config_arg(cfg, argc, argv.data(), i, nullptr,
                                        &error),
              ConfigArg::kNotConfig)
        << args[static_cast<std::size_t>(at)];
  }

  std::uint64_t n = 0;
  EXPECT_TRUE(harness::parse_uint_text("42", &n));
  EXPECT_EQ(n, 42u);
  for (const char* bad : {"", "-1", "4x", "1e3", "99999999999999999999"}) {
    EXPECT_FALSE(harness::parse_uint_text(bad, &n)) << bad;
  }
}

// Every input bound is reachable and exact: the member stores the edge
// value itself (a bound wider than the member would truncate), one step
// past an integer bound is rejected, and every bound is below 2^53, so a
// typed JSON number spells it exactly.
TEST(ConfigSchema, InputBoundsAreExact) {
  constexpr double kExact = 9007199254740992.0;  // 2^53
  for (const ConfigField& f : harness::config_fields()) {
    const bool integral =
        f.type == FieldType::kInt || f.type == FieldType::kTime;
    if (!f.input || !(integral || f.type == FieldType::kReal)) continue;
    for (const double edge : {f.min, f.max}) {
      ASSERT_LT(std::abs(edge), kExact) << f.key;
      const std::string text = bound_text(f, edge);
      ExperimentConfig cfg;
      std::string error;
      ASSERT_TRUE(harness::apply_config_option(cfg, f.key, text, &error))
          << error;
      if (f.rendered()) {
        EXPECT_EQ(f.text(cfg), text) << f.key;
      }
      if (integral) {
        const std::string past =
            bound_text(f, edge == f.min ? edge - 1 : edge + 1);
        EXPECT_FALSE(harness::apply_config_option(cfg, f.key, past, &error))
            << f.key << "=" << past;
      }
    }
  }
}

// Each input at each bound makes a run that ends. Under UBSan this checks
// that no accepted value overflows the time arithmetic, the spatial-grid
// cell coordinates or the TDMA tiling. rows and cols are left out: their
// bound is a question of memory, not of arithmetic.
TEST(ConfigSchema, InputsAtTheirBoundsSimulate) {
  for (const char* mac : {"csma", "tdma"}) {
    for (const ConfigField& f : harness::config_fields()) {
      const bool numeric =
          f.type == FieldType::kInt || f.type == FieldType::kReal;
      if (!f.input || !numeric || f.key == "rows" || f.key == "cols") {
        continue;
      }
      for (const double edge : {f.min, f.max}) {
        ExperimentConfig cfg;
        cfg.rows = 2;
        cfg.cols = 2;
        cfg.set_program_segments(1);
        cfg.max_sim_time = sim::minutes(2);
        const std::string text = bound_text(f, edge);
        std::string error;
        ASSERT_TRUE(harness::apply_config_option(cfg, "mac", mac, &error));
        ASSERT_TRUE(harness::apply_config_option(cfg, f.key, text, &error))
            << error;
        const harness::RunResult r = harness::run_experiment(cfg);
        EXPECT_EQ(r.nodes.size(), 4u) << f.key << "=" << text << " " << mac;
      }
    }
  }
}

// Deterministic mutational fuzzing of the JSON request surface: every
// mutant either fails with a message or yields a config whose rendered
// rows all re-parse from their own text, i.e. nothing out of bounds got
// in.
TEST(ConfigSchema, MutatedRequestsParseOrFailCleanly) {
  const ExperimentConfig defaults;
  std::vector<ConfigOption> every_input;
  for (const ConfigField& f : harness::config_fields()) {
    if (f.input) every_input.emplace_back(f.key, perturbed(f, defaults));
  }
  const std::vector<std::string> corpus = {
      service::run_request_json({{"rows", "5"}, {"segments", "2"}},
                                "scenario s\nat 10s kill 3\n", {1, 2}),
      service::run_request_json(every_input, "", {3}),
      R"({"config":{"rows":3,"spacing_ft":12.5,"pipelining":false,)"
      R"("protocol":"ncast","max_sim_time_s":900},"runs":2})",
  };
  const std::vector<std::string> tokens = {
      "{", "}", "[", "]", ",", ":", "\"", "\\", "-", "0", "1e308",
      "18446744073709551616", "-0", "null", "true", "\"rows\"",
      "\"segments\"", "[0.5,", "1e-400", "\"\\u0000\"", " "};
  std::mt19937_64 rng(0x5eed);
  std::size_t accepted = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::string s = corpus[rng() % corpus.size()];
    const int edits = 1 + static_cast<int>(rng() % 4);
    for (int e = 0; e < edits && !s.empty(); ++e) {
      const std::size_t at = rng() % s.size();
      switch (rng() % 4) {
        case 0: s[at] = static_cast<char>(rng() % 256); break;
        case 1: s.insert(at, tokens[rng() % tokens.size()]); break;
        case 2: s.erase(at, 1 + rng() % 8); break;
        default: s.insert(at, s.substr(rng() % s.size(), rng() % 16)); break;
      }
    }
    const auto parsed = service::parse_run_request_text(s);
    if (!parsed.ok) {
      EXPECT_FALSE(parsed.error.empty()) << s;
      continue;
    }
    ++accepted;
    for (const ConfigField& f : harness::config_fields()) {
      if (!f.rendered()) continue;
      ExperimentConfig again;
      EXPECT_TRUE(assign(again, f.key, f.text(parsed.request.cfg)))
          << f.key << "\n" << s;
    }
  }
  EXPECT_GT(accepted, 100u);  // the mutants reach past the JSON parser
}

TEST(ConfigSchema, UsageListsEveryFlag) {
  std::ostringstream usage;
  harness::write_config_usage(usage);
  for (const ConfigField& f : harness::config_fields()) {
    if (f.flag.empty()) continue;
    EXPECT_NE(usage.str().find("  " + std::string(f.flag) + " "),
              std::string::npos)
        << f.flag;
  }
}

}  // namespace
}  // namespace mnp
