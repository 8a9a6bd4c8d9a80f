// The one schema of ExperimentConfig (DESIGN.md section 15).
//
// config_fields() is a table with one row per knob: its key, how its
// value is spelled (type, bounds, choices), the member it reads and
// writes, and whether it is an input. Every surface that reads or writes
// a config is generated from that table:
//   - the dedup manifest behind the run store (service/manifest) and the
//     config block of the --metrics-out run manifest (harness/observe)
//     render every row, so neither can leave a knob out;
//   - the fleet service's JSON request parser (service/run_request) and
//     the mnp_sim_cli and mnp_fleet flags accept only the input rows.
// A new knob is one row here. Making it an input is a separate decision.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/experiment.hpp"

namespace mnp::obs {
class JsonWriter;
}

namespace mnp::harness {

/// How a field's value is spelled on the CLI and in JSON.
enum class FieldType : std::uint8_t {
  kBool,      ///< true|false (input also accepts 1|0)
  kInt,       ///< decimal integer in [min, max]
  kReal,      ///< finite decimal number in [min, max]
  kTime,      ///< sim::Time in integer microseconds; keys end in _us
  kChoice,    ///< one of `choices`
  kRealList,  ///< comma-separated reals as text, a JSON array in manifests
};

struct ConfigField {
  std::string_view key;  ///< manifest key; the request key of input rows
  FieldType type = FieldType::kBool;
  std::string_view help;
  std::span<const std::string_view> choices;  ///< kChoice spellings
  double min = 0.0;  ///< kInt/kReal/kTime lower bound, inclusive
  double max = 0.0;  ///< kInt/kReal/kTime upper bound, inclusive
  /// Accepted by apply_config_option, i.e. a fleet request key.
  bool input = false;
  /// CLI spelling ("" = none; only input rows have one). With a non-empty
  /// `flag_value` it is a switch that applies that value.
  std::string_view flag;
  std::string_view flag_value;

  /// Parses `value` and stores it; false (config untouched) on a
  /// malformed or out-of-range value. Set on every row: on a row that is
  /// not an input it is the inverse of `text` that proves the manifests
  /// render the value without loss.
  bool (*assign)(const ConfigField& self, ExperimentConfig& cfg,
                 std::string_view value) = nullptr;
  /// The value's spelling (assign(text(cfg)) is the identity); null for
  /// the input-only unit conversions, which are never rendered.
  std::string (*text)(const ExperimentConfig& cfg) = nullptr;

  bool rendered() const { return text != nullptr; }
};

/// Every row, in manifest order.
const std::vector<ConfigField>& config_fields();

/// The row with this key, or null.
const ConfigField* find_config_field(std::string_view key);

/// Applies one (key, value-as-text) input option. False with *error set
/// on a key that is not an input row or on an invalid value.
bool apply_config_option(ExperimentConfig& cfg, std::string_view key,
                         std::string_view value, std::string* error);

/// Writes every rendered row as a member of the JSON object `w` is in.
void write_config_fields(obs::JsonWriter& w, const ExperimentConfig& cfg);

/// The exchange unit of the surfaces: (key, value-as-text).
using ConfigOption = std::pair<std::string, std::string>;

enum class ConfigArg : std::uint8_t { kNotConfig, kApplied, kInvalid };

/// CLI front end shared by mnp_sim_cli and mnp_fleet. When argv[i] is a
/// config flag, applies it to `cfg` (consuming the value argument, which
/// advances `i`) and, if `options` is non-null, appends the option in the
/// request vocabulary. kInvalid sets *error.
ConfigArg apply_config_arg(ExperimentConfig& cfg, int argc, char** argv,
                           int& i, std::vector<ConfigOption>* options,
                           std::string* error);

/// Usage lines for every config flag, with the defaults.
void write_config_usage(std::ostream& os);

/// Strict unsigned decimal: digits only, no sign, no overflow. For the
/// CLIs' run-control flags (--seed, --runs, --jobs, ...).
bool parse_uint_text(std::string_view text, std::uint64_t* out);

}  // namespace mnp::harness
