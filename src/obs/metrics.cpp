#include "obs/metrics.hpp"

#include <cassert>

namespace mnp::obs {

const char* unit_name(Unit unit) {
  switch (unit) {
    case Unit::kCount: return "count";
    case Unit::kMicroseconds: return "us";
    case Unit::kBytes: return "bytes";
    case Unit::kNanoampHours: return "nAh";
  }
  return "?";
}

const MetricsRegistry::Def* MetricsRegistry::find(std::string_view name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &defs_[it->second];
}

std::uint32_t MetricsRegistry::intern(std::string_view name, Kind kind,
                                      Unit unit, bool per_node) {
  const auto it = index_.find(name);
  if (it != index_.end()) {
    // Several owners may register one name (the stats collector reads the
    // channel's chan.collisions); they must agree on its shape.
    const Def& def = defs_[it->second];
    assert(def.kind == kind && def.unit == unit && def.per_node == per_node &&
           "metric re-registered with a different shape or unit");
    return def.cell;
  }
  const std::size_t cells = per_node ? 1 + node_count_ : 1;
  Def def;
  def.name = std::string(name);
  def.kind = kind;
  def.unit = unit;
  def.per_node = per_node;
  if (kind == Kind::kCounter) {
    def.cell = static_cast<std::uint32_t>(counter_cells_.size());
    counter_cells_.resize(counter_cells_.size() + cells, 0);
  } else {
    def.cell = static_cast<std::uint32_t>(gauge_cells_.size());
    gauge_cells_.resize(gauge_cells_.size() + cells, 0.0);
  }
  index_.emplace(def.name, static_cast<std::uint32_t>(defs_.size()));
  defs_.push_back(std::move(def));
  return defs_.back().cell;
}

MetricsRegistry::Counter MetricsRegistry::register_counter(
    std::string_view name, Unit unit, bool per_node) {
  return Counter{intern(name, Kind::kCounter, unit, per_node)};
}

MetricsRegistry::Gauge MetricsRegistry::register_gauge(std::string_view name,
                                                       Unit unit,
                                                       bool per_node) {
  return Gauge{intern(name, Kind::kGauge, unit, per_node)};
}

bool MetricsRegistry::has(std::string_view name) const {
  return find(name) != nullptr;
}

std::uint64_t MetricsRegistry::counter_total(std::string_view name) const {
  const Def* d = find(name);
  return d && d->kind == Kind::kCounter ? counter_cells_[d->cell] : 0;
}

std::uint64_t MetricsRegistry::counter_node(std::string_view name,
                                            net::NodeId node) const {
  const Def* d = find(name);
  if (!d || d->kind != Kind::kCounter || !d->per_node || node >= node_count_) {
    return 0;
  }
  return counter_cells_[d->cell + 1u + node];
}

double MetricsRegistry::gauge_total(std::string_view name) const {
  const Def* d = find(name);
  if (!d || d->kind != Kind::kGauge) return 0.0;
  if (!d->per_node) return gauge_cells_[d->cell];
  double sum = 0.0;
  for (std::size_t i = 0; i < node_count_; ++i) {
    sum += gauge_cells_[d->cell + 1u + i];
  }
  return sum;
}

bool MetricsRegistry::merge_from(const MetricsRegistry& other) {
  if (other.defs_.size() != defs_.size() ||
      other.node_count_ != node_count_ ||
      other.counter_cells_.size() != counter_cells_.size() ||
      other.gauge_cells_.size() != gauge_cells_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < defs_.size(); ++i) {
    if (defs_[i].name != other.defs_[i].name ||
        defs_[i].kind != other.defs_[i].kind) {
      return false;
    }
  }
  for (std::size_t i = 0; i < counter_cells_.size(); ++i) {
    counter_cells_[i] += other.counter_cells_[i];
  }
  for (std::size_t i = 0; i < gauge_cells_.size(); ++i) {
    gauge_cells_[i] += other.gauge_cells_[i];
  }
  return true;
}

void MetricsRegistry::write_json(JsonWriter& w) const {
  w.begin_object();
  for (const auto& [name, idx] : index_) {  // std::map: sorted by name
    const Def& d = defs_[idx];
    w.key(name);
    w.begin_object();
    w.key("unit");
    w.value(unit_name(d.unit));
    switch (d.kind) {
      case Kind::kCounter: {
        w.key("type");
        w.value("counter");
        w.key("total");
        w.value(counter_cells_[d.cell]);
        if (d.per_node) {
          w.key("per_node");
          w.begin_array();
          for (std::size_t i = 0; i < node_count_; ++i) {
            w.value(counter_cells_[d.cell + 1u + i]);
          }
          w.end_array();
        }
        break;
      }
      case Kind::kGauge: {
        w.key("type");
        w.value("gauge");
        w.key("total");
        w.value(gauge_total(name));
        if (d.per_node) {
          w.key("per_node");
          w.begin_array();
          for (std::size_t i = 0; i < node_count_; ++i) {
            w.value(gauge_cells_[d.cell + 1u + i]);
          }
          w.end_array();
        }
        break;
      }
    }
    w.end_object();
  }
  w.end_object();
}

}  // namespace mnp::obs
