#include "service/manifest.hpp"

#include "harness/config_schema.hpp"
#include "obs/json_writer.hpp"
#include "scenario/scenario.hpp"

namespace mnp::service {

namespace {

void write_node_list(obs::JsonWriter& w, const std::vector<net::NodeId>& ids) {
  w.begin_array();
  for (const net::NodeId id : ids) w.value(static_cast<std::uint64_t>(id));
  w.end_array();
}

/// Canonical rendering of one parsed scenario event. Every field is
/// emitted (defaults included) so the shape never depends on the kind.
void write_event(obs::JsonWriter& w, const scenario::ScenarioEvent& e) {
  w.begin_object();
  w.key("at");
  w.value(static_cast<std::int64_t>(e.at));
  w.key("kind");
  w.value(scenario::to_string(e.kind));
  w.key("node");
  w.value(static_cast<std::uint64_t>(e.node));
  w.key("value");
  w.value(e.value);
  w.key("duration");
  w.value(static_cast<std::int64_t>(e.duration));
  w.key("x");
  w.value(e.x);
  w.key("y");
  w.value(e.y);
  w.key("groups");
  w.begin_array();
  for (const auto& group : e.groups) write_node_list(w, group);
  w.end_array();
  w.key("nodes");
  write_node_list(w, e.nodes);
  w.end_object();
}

}  // namespace

std::string canonical_manifest(const harness::ExperimentConfig& cfg,
                               std::uint64_t seed) {
  obs::JsonWriter w;
  w.begin_object();
  w.key("manifest_version");
  w.value(3);

  // Every row of the config schema, values spelled exactly, so two
  // configs that differ in any of them never collide. Knobs of protocols
  // other than cfg.protocol are hashed too: a miss costs one simulation,
  // a false hit would serve wrong bytes.
  w.key("config");
  w.begin_object();
  harness::write_config_fields(w, cfg);
  w.key("seed");
  w.value(seed);
  w.end_object();

  // The *parsed* schedule, not its textual spelling: comments, blank
  // lines and equivalent time suffixes ("90s" vs "1.5min") hash alike.
  w.key("scenario");
  w.begin_object();
  w.key("name");
  w.value(cfg.scenario.name());
  w.key("events");
  w.begin_array();
  for (const scenario::ScenarioEvent& e : cfg.scenario.events()) {
    write_event(w, e);
  }
  w.end_array();
  w.end_object();

  w.end_object();
  return w.take();
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t manifest_hash(const harness::ExperimentConfig& cfg,
                            std::uint64_t seed) {
  return fnv1a64(canonical_manifest(cfg, seed));
}

std::string manifest_hash_hex(std::uint64_t hash) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[hash & 0xF];
    hash >>= 4;
  }
  return out;
}

}  // namespace mnp::service
