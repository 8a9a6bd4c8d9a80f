#include "service/run_request.hpp"

#include <cmath>
#include <cstdio>

#include "harness/config_schema.hpp"
#include "obs/json_writer.hpp"
#include "scenario/scenario_parser.hpp"

namespace mnp::service {

namespace {

/// Exact-round-trip textual spelling of a JSON scalar, so typed values
/// reach the schema spelled the way the CLI would spell them (%.17g for
/// numbers). False for arrays, objects and null.
bool scalar_to_text(const JsonValue& v, std::string* out) {
  switch (v.kind) {
    case JsonValue::Kind::kString:
      *out = v.string;
      return true;
    case JsonValue::Kind::kBool:
      *out = v.boolean ? "true" : "false";
      return true;
    case JsonValue::Kind::kNumber: {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", v.number);
      *out = buf;
      return true;
    }
    default:
      return false;
  }
}

/// A seed or run count: a non-negative integer JSON number small enough
/// to be exact in a double.
bool json_count(const JsonValue& v, std::uint64_t* out) {
  constexpr double kMaxExact = 9007199254740992.0;  // 2^53
  if (!v.is_number() || !(v.number >= 0.0) || v.number > kMaxExact ||
      std::floor(v.number) != v.number) {
    return false;
  }
  *out = static_cast<std::uint64_t>(v.number);
  return true;
}

}  // namespace

RunRequestResult parse_run_request(const JsonValue& body) {
  RunRequestResult out;
  if (!body.is_object()) {
    out.error = "request body must be a JSON object";
    return out;
  }
  for (const auto& [key, value] : body.members) {
    if (key != "config" && key != "seeds" && key != "seed" && key != "runs") {
      out.error = "unknown request key '" + key +
                  "' (expected config, seeds, seed, runs)";
      return out;
    }
  }

  if (const JsonValue* config = body.find("config")) {
    if (!config->is_object()) {
      out.error = "\"config\" must be an object";
      return out;
    }
    for (const auto& [key, value] : config->members) {
      if (key == "scenario") {
        if (!value.is_string()) {
          out.error = "\"scenario\" must be a string of scenario text";
          return out;
        }
        out.scenario_text = value.string;
        continue;
      }
      std::string text;
      if (!scalar_to_text(value, &text)) {
        out.error = "option '" + key + "' must be a scalar";
        return out;
      }
      if (!harness::apply_config_option(out.request.cfg, key, text,
                                        &out.error)) {
        return out;
      }
    }
  }

  if (!out.scenario_text.empty()) {
    const scenario::ParseResult parsed =
        scenario::parse_scenario_text(out.scenario_text);
    if (!parsed.ok) {
      out.error = "scenario: " + parsed.error;
      return out;
    }
    out.request.cfg.scenario = parsed.scenario;
  }

  if (const JsonValue* seeds = body.find("seeds")) {
    if (!seeds->is_array() || seeds->items.empty()) {
      out.error = "\"seeds\" must be a non-empty array";
      return out;
    }
    for (const JsonValue& s : seeds->items) {
      std::uint64_t seed = 0;
      if (!json_count(s, &seed)) {
        out.error = "\"seeds\" entries must be non-negative integers";
        return out;
      }
      out.request.seeds.push_back(seed);
    }
  } else {
    std::uint64_t first = 1;
    std::uint64_t count = 1;
    const JsonValue* seed = body.find("seed");
    const JsonValue* runs = body.find("runs");
    if (seed != nullptr && !json_count(*seed, &first)) {
      out.error = "\"seed\" must be a non-negative integer";
      return out;
    }
    if (runs != nullptr && !json_count(*runs, &count)) count = 0;
    if (count == 0 || count > 100000) {
      out.error = "\"runs\" must be an integer in [1, 100000]";
      return out;
    }
    for (std::uint64_t i = 0; i < count; ++i) {
      out.request.seeds.push_back(first + i);
    }
  }

  out.ok = true;
  return out;
}

RunRequestResult parse_run_request_text(std::string_view body) {
  const JsonParseResult parsed = parse_json(body);
  if (!parsed.ok) {
    RunRequestResult out;
    out.error = "invalid JSON: " + parsed.error;
    return out;
  }
  return parse_run_request(parsed.value);
}

std::string run_request_json(const std::vector<harness::ConfigOption>& options,
                             std::string_view scenario_text,
                             const std::vector<std::uint64_t>& seeds) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("config");
  w.begin_object();
  for (const auto& [key, value] : options) {
    w.key(key);
    w.value(std::string_view(value));
  }
  if (!scenario_text.empty()) {
    w.key("scenario");
    w.value(scenario_text);
  }
  w.end_object();
  w.key("seeds");
  w.begin_array();
  for (const std::uint64_t s : seeds) w.value(s);
  w.end_array();
  w.end_object();
  return w.take();
}

}  // namespace mnp::service
