// MetricsRegistry: named counters and gauges — the run-wide accounting
// store behind every run count and `--metrics-out` (DESIGN.md section 9).
//
// Every Network owns one registry, sized to its node count when it is
// built, and every run counts into it, observed or not: the channel, the
// MACs, the stats collector, the protocols and the scenario engine each
// hold a handle per count, and their counter accessors read the cell
// back. An observed run copies the registry into its Observation.
//
// The registry separates a *registration* phase (allocates, builds the
// name index, returns a handle) from the *hot path* (plain array indexing,
// zero allocation). Subsystems register their handles once at
// construction or start, then increment through the handle for every
// packet of a multi-hour run. Per-node metrics keep one cell per node plus
// a running total cell, so both the Fig.-11 style distributions and the
// summary line come from the same counter.
//
// Export is deterministic: metrics serialize sorted by name, values are
// fixed-format (json_writer.hpp), and merging sweeps accumulates in seed
// order — a --jobs 4 sweep produces the byte-identical file a --jobs 1
// sweep does.
#pragma once

#include <cassert>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "net/packet.hpp"
#include "obs/json_writer.hpp"

namespace mnp::obs {

/// Version of the telemetry contract (metric names/units, manifest layout,
/// trace track layout). Bump on any breaking change; both JSON outputs
/// carry it as "schema_version". Documented in DESIGN.md section 9.
/// v2: scenario fault track (virtual "scenario" process after the
/// "network" process), Scenario events, scenario.* counters, xnp.*
/// metrics, and the manifest's "scenario" config keys.
/// v3: channel cache telemetry — chan.cache_repairs /
/// chan.cache_invalidations counters and chan.grid_* gauges in the
/// registry, plus "cache_repairs" / "cache_invalidations" counter tracks
/// under the virtual "network" process in the trace.
/// v4: NCast network-coded baseline — ncast.* counters (rounds,
/// advs_sent, requests_sent, coded_sent, innovative, redundant,
/// decode_row_ops, generations_decoded) and the ncast.rank gauge.
/// v5: the manifest's config block is generated from the config schema
/// (harness/config_schema.hpp): every knob, keyed as in the dedup
/// manifest, choices in their input spelling ("mnp", not "MNP").
/// v6: the config block loses the chan_* rows of the two retired channel
/// paths (deep-copy delivery and the eager all-pairs cache), and
/// node.completions / node.segments_completed have one cell per node
/// (through v5 they were registered before the node count was set, so
/// their per-node adds spilled into the next metrics' cells).
/// v7: the config block loses mnp_eeprom_base_offset (the image always
/// starts at EEPROM offset 0).
inline constexpr int kTelemetrySchemaVersion = 7;

enum class Unit : std::uint8_t {
  kCount,
  kMicroseconds,
  kBytes,
  kNanoampHours,
};
const char* unit_name(Unit unit);

class MetricsRegistry {
 public:
  static constexpr std::uint32_t kNoCell = 0xFFFFFFFFu;

  /// Handles are plain indices, valid only once assigned from a
  /// register_* call of the registry they index; Debug builds assert that
  /// every hot-path use passes a registered one.
  struct Counter { std::uint32_t cell = kNoCell; };
  struct Gauge { std::uint32_t cell = kNoCell; };

  /// The node count sizes every per-node metric and is fixed for the
  /// registry's lifetime.
  explicit MetricsRegistry(std::size_t node_count = 0)
      : node_count_(node_count) {}

  std::size_t node_count() const { return node_count_; }

  // --- registration (allocates; idempotent per name) ----------------------
  Counter register_counter(std::string_view name, Unit unit, bool per_node);
  Gauge register_gauge(std::string_view name, Unit unit, bool per_node);

  // --- hot path (no allocation, no lookup) --------------------------------
  void add(Counter h, std::uint64_t v = 1) {
    assert(h.cell < counter_cells_.size() && "unregistered counter");
    counter_cells_[h.cell] += v;
  }
  /// Per-node counter: bumps the node's cell and the total cell.
  /// Out-of-range node ids (broadcast pseudo-ids) count toward the total
  /// only.
  void add(Counter h, net::NodeId node, std::uint64_t v = 1) {
    assert(h.cell < counter_cells_.size() && "unregistered counter");
    counter_cells_[h.cell] += v;
    if (node < node_count_) counter_cells_[h.cell + 1u + node] += v;
  }
  void set(Gauge h, double v) {
    assert(h.cell < gauge_cells_.size() && "unregistered gauge");
    gauge_cells_[h.cell] = v;
  }
  void set(Gauge h, net::NodeId node, double v) {
    assert(h.cell < gauge_cells_.size() && "unregistered gauge");
    if (node < node_count_) gauge_cells_[h.cell + 1u + node] = v;
  }

  // --- handle reads (the owners' counter accessors) -----------------------
  std::uint64_t total(Counter h) const {
    assert(h.cell < counter_cells_.size() && "unregistered counter");
    return counter_cells_[h.cell];
  }
  /// A per-node counter's cell; 0 for ids past the node count.
  std::uint64_t at(Counter h, net::NodeId node) const {
    assert(h.cell < counter_cells_.size() && "unregistered counter");
    return node < node_count_ ? counter_cells_[h.cell + 1u + node] : 0;
  }

  // --- queries by name (tests, manifest assembly) -------------------------
  bool has(std::string_view name) const;
  std::uint64_t counter_total(std::string_view name) const;
  std::uint64_t counter_node(std::string_view name, net::NodeId node) const;
  double gauge_total(std::string_view name) const;

  /// Element-wise accumulation of a same-schema registry (sweep merge;
  /// callers merge in seed order for determinism). Counters add; gauges
  /// add too, i.e. a merged gauge reads as the sum over runs. Registries
  /// with differing schemas refuse to merge (false).
  bool merge_from(const MetricsRegistry& other);

  /// Serializes every metric, sorted by name, as one JSON object value:
  ///   {"chan.tx": {"type":"counter","unit":"count","total":N,
  ///                "per_node":[...]}, ...}
  void write_json(JsonWriter& w) const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge };

  struct Def {
    std::string name;
    Kind kind = Kind::kCounter;
    Unit unit = Unit::kCount;
    bool per_node = false;
    std::uint32_t cell = kNoCell;  // base cell (the total; per-node follow)
  };

  const Def* find(std::string_view name) const;
  /// Returns the metric's base cell, allocating its cells on first
  /// registration.
  std::uint32_t intern(std::string_view name, Kind kind, Unit unit,
                       bool per_node);

  std::size_t node_count_ = 0;
  std::vector<Def> defs_;
  // Name -> index into defs_; ordered map doubles as the sorted export
  // order and keeps the determinism lint trivially satisfied.
  std::map<std::string, std::uint32_t, std::less<>> index_;
  std::vector<std::uint64_t> counter_cells_;
  std::vector<double> gauge_cells_;
};

}  // namespace mnp::obs
