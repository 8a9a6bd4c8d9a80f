// Request surface of the fleet service (DESIGN.md §14): the JSON body of
// `POST /runs` and the body `mnp_fleet` renders from its flags.
//
// Config keys are the input rows of the one config schema
// (harness/config_schema.hpp), the rows the CLIs' flags come from too,
// so a run described twice — `--rows 12` on the command line, `"rows": 12`
// in a JSON config — builds the field-identical ExperimentConfig and
// therefore the identical canonical manifest hash. JSON scalars are
// rendered to text with exact round-trip formats (%.17g for numbers)
// before they reach the schema's parser.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness/config_schema.hpp"
#include "harness/experiment.hpp"
#include "service/json.hpp"

namespace mnp::service {

/// A parsed `POST /runs` body: the config template plus the seeds to run
/// it under (each seed becomes one dedup'able run record).
struct RunRequest {
  harness::ExperimentConfig cfg;
  std::vector<std::uint64_t> seeds;
};

struct RunRequestResult {
  bool ok = false;
  std::string error;
  RunRequest request;
  /// Inline scenario text from the body (already parsed into
  /// request.cfg.scenario; kept so callers can feed a shared cache).
  std::string scenario_text;
};

/// Parses a request body:
///   {"config": {<schema keys>..., "scenario": "<inline text>"},
///    "seed": 1, "runs": 3}            // seeds 1, 2, 3
///   {"config": {...}, "seeds": [7, 9]}  // explicit list
/// Absent seed info defaults to the single seed 1. Unknown keys, at the
/// top level or in "config", are errors: a typo must never run (and
/// dedup as) the default config.
RunRequestResult parse_run_request(const JsonValue& body);

/// Convenience: parse_run_request over raw JSON text.
RunRequestResult parse_run_request_text(std::string_view body);

/// Renders the request-body JSON `mnp_fleet` submits: the (key, value)
/// options exactly as collected from the command line (values as JSON
/// strings — parse_run_request accepts both typed scalars and their
/// textual spellings), the scenario text if any, and the seed list. The
/// daemon reconstructs a field-identical config from it.
std::string run_request_json(const std::vector<harness::ConfigOption>& options,
                             std::string_view scenario_text,
                             const std::vector<std::uint64_t>& seeds);

}  // namespace mnp::service
