#include "net/channel.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "net/radio.hpp"

namespace mnp::net {

Channel::Channel(sim::Simulator& sim, const Topology& topo,
                 const LinkModel& links, obs::MetricsRegistry& metrics,
                 Params params)
    : sim_(sim),
      topo_(topo),
      links_(links),
      params_(params),
      rng_(sim.fork_rng(0xC4A27EFULL)),
      metrics_(metrics),
      m_tx_(metrics.register_counter("chan.tx", obs::Unit::kCount, true)),
      m_delivered_(metrics.register_counter("chan.delivered",
                                            obs::Unit::kCount, true)),
      m_collisions_(metrics.register_counter("chan.collisions",
                                             obs::Unit::kCount, true)),
      m_bulk_overlaps_(metrics.register_counter("chan.bulk_overlaps",
                                                obs::Unit::kCount, false)),
      m_cache_invalidations_(metrics.register_counter(
          "chan.cache_invalidations", obs::Unit::kCount, false)),
      m_cache_repairs_(metrics.register_counter("chan.cache_repairs",
                                                obs::Unit::kCount, false)),
      m_grid_cells_(
          metrics.register_gauge("chan.grid_cells", obs::Unit::kCount, false)),
      m_grid_occupancy_(metrics.register_gauge("chan.grid_max_occupancy",
                                               obs::Unit::kCount, false)) {
  // Past kMaxNodes, ids wrap onto other nodes and onto kBroadcastId.
  assert(topo_.size() <= kMaxNodes);
  radios_.resize(topo_.size(), nullptr);
  listening_.resize(topo_.size(), 0);
}

Channel::Channel(sim::Simulator& sim, const Topology& topo,
                 const LinkModel& links, obs::MetricsRegistry& metrics)
    : Channel(sim, topo, links, metrics, Params{}) {}

void Channel::register_radio(Radio& radio) {
  if (radio.id() >= radios_.size()) {
    radios_.resize(radio.id() + 1, nullptr);
    listening_.resize(radio.id() + 1, 0);
  }
  radios_[radio.id()] = &radio;
  listening_[radio.id()] = radio.is_listening() ? 1 : 0;
}

sim::Time Channel::airtime(const Packet& pkt) const {
  const double bits = static_cast<double>(pkt.wire_bytes()) * 8.0;
  return static_cast<sim::Time>(bits / params_.bitrate_bps * 1e6);
}

void Channel::publish_grid_gauges() const {
  metrics_.set(m_grid_cells_, static_cast<double>(grid_.cell_count()));
  metrics_.set(m_grid_occupancy_, static_cast<double>(grid_.max_occupancy()));
}

void Channel::discard_caches() const {
  scales_.clear();
  scale_index_.clear();
  grid_.reset();
}

void Channel::mark_neighborhood_dirty(ScaleCache& cache, Position p) const {
  if (cache.radius < 0.0 || !grid_.valid()) {
    cache.mark_all_dirty(cache.neighbors.size());
    return;
  }
  grid_.for_each_near(p.x, p.y, cache.radius,
                      [&](NodeId s) { cache.mark_dirty(s); });
}

void Channel::apply_move(const Topology::MoveRecord& mv) const {
  // Any source whose row could gain or lose the moved node sits within the
  // scale's interference radius of one of the endpoints (interference is a
  // distance bound), so two disc queries cover exactly the affected rows.
  for (const auto& cache : scales_) {
    mark_neighborhood_dirty(*cache, mv.from);
    mark_neighborhood_dirty(*cache, mv.to);
    if (mv.node < cache->neighbors.size()) cache->mark_dirty(mv.node);
  }
  grid_.move(mv.node, mv.to);
}

void Channel::sync_world() const {
  const std::uint64_t tv = topo_.version();
  const std::uint64_t lr = links_.revision();
  if (tv == cache_topo_version_ && lr == cache_links_revision_) return;
  if (scales_.empty()) {
    // Nothing cached yet; a built grid would be a stale position snapshot.
    grid_.reset();
  } else {
    // Incremental repair needs the grid's position snapshot plus a
    // complete account of what changed (bounded logs: either can have been
    // overwritten, and a link model may not track change sets at all).
    // Anything short of that discards the caches — correct by
    // construction, merely slower.
    bool incremental = grid_.valid();
    move_scratch_.clear();
    if (incremental && tv != cache_topo_version_) {
      incremental = topo_.moves_since(cache_topo_version_, move_scratch_);
    }
    link_scratch_.clear();
    if (incremental && lr != cache_links_revision_) {
      incremental = links_.changed_nodes_since(cache_links_revision_,
                                               link_scratch_);
    }
    if (incremental) {
      for (const auto& mv : move_scratch_) apply_move(mv);
      for (const NodeId id : link_scratch_) {
        if (id >= topo_.size()) continue;
        const Position p{grid_.x(id), grid_.y(id)};
        for (const auto& cache : scales_) {
          mark_neighborhood_dirty(*cache, p);
          if (id < cache->neighbors.size()) cache->mark_dirty(id);
        }
      }
      publish_grid_gauges();
    } else {
      discard_caches();
    }
    metrics_.add(m_cache_invalidations_);
  }
  cache_topo_version_ = tv;
  cache_links_revision_ = lr;
  // After recording the versions, so refresh_reach's own scale_for calls
  // find the world in sync.
  if (params_.neighbor_cache) refresh_reach();
}

void Channel::refresh_reach() const {
  // Reach answers from the *current* row, as if every query re-read it:
  // a move or link window can add or drop listeners from the row of a
  // transmission already in flight (its candidates stay as enrolled).
  const std::size_t n = topo_.size();
  for (const auto& tx : active_) {
    if (tx->src >= n) continue;
    ScaleCache& cache = scale_for(tx->pkt().power_scale);
    ensure_row(cache, tx->src);
    const std::vector<NodeId>& row = cache.neighbors[tx->src];
    if (row == tx->reached) continue;
    for (const NodeId r : tx->reached) --listeners_[r].reach;
    tx->reached.assign(row.begin(), row.end());
    for (const NodeId r : tx->reached) ++listeners_[r].reach;
  }
}

Channel::ScaleCache& Channel::scale_for(double power_scale) const {
  sync_world();
  const auto it = std::lower_bound(
      scale_index_.begin(), scale_index_.end(), power_scale,
      [](const std::pair<double, std::uint32_t>& e, double v) {
        return e.first < v;
      });
  if (it != scale_index_.end() && it->first == power_scale) {
    return *scales_[it->second];
  }
  return build_scale(power_scale);
}

Channel::ScaleCache& Channel::build_scale(double power_scale) const {
  // First packet at this power scale: every row is deferred to first touch
  // (O(neighbors) through the grid; O(N) for a link model without a finite
  // interference bound).
  auto cache = std::make_unique<ScaleCache>();
  cache->power_scale = power_scale;
  cache->radius = links_.max_interference_range(power_scale);
  const std::size_t n = topo_.size();
  cache->neighbors.resize(n);
  cache->success.resize(n);
  if (!grid_.valid() && cache->radius > 0.0) {
    grid_.build(topo_, cache->radius);
    publish_grid_gauges();
  }
  cache->mark_all_dirty(n);
  scales_.push_back(std::move(cache));
  const auto index = static_cast<std::uint32_t>(scales_.size() - 1);
  const auto pos = std::lower_bound(
      scale_index_.begin(), scale_index_.end(), power_scale,
      [](const std::pair<double, std::uint32_t>& e, double v) {
        return e.first < v;
      });
  scale_index_.insert(pos, {power_scale, index});
  return *scales_[index];
}

void Channel::rebuild_row(ScaleCache& cache, NodeId src) const {
  std::vector<NodeId>& nbr = cache.neighbors[src];
  std::vector<double>& suc = cache.success[src];
  nbr.clear();
  suc.clear();
  const double ps = cache.power_scale;
  if (grid_.valid() && cache.radius >= 0.0) {
    // Grid superset -> exact filter -> sort: byte-identical to the linear
    // scan below (ascending, self excluded), which is the order the
    // brute-force oracle visits, so both feed the RNG the same candidate
    // streams.
    row_scratch_.clear();
    grid_.for_each_near(
        grid_.x(src), grid_.y(src), cache.radius, [&](NodeId d) {
          if (d != src && links_.interferes(src, d, ps)) {
            row_scratch_.push_back(d);
          }
        });
    std::sort(row_scratch_.begin(), row_scratch_.end());
    if (nbr.capacity() < row_scratch_.size()) {
      // A quarter more than this build needs, so the neighbours a move or
      // a healed partition adds later fit without regrowing the row.
      const std::size_t room = row_scratch_.size() + row_scratch_.size() / 4;
      nbr.reserve(room);
      suc.reserve(room);
    }
    nbr.assign(row_scratch_.begin(), row_scratch_.end());
    for (const NodeId d : nbr) suc.push_back(links_.packet_success(src, d, ps));
  } else {
    const std::size_t n = topo_.size();
    for (std::size_t dst = 0; dst < n; ++dst) {
      const NodeId d = static_cast<NodeId>(dst);
      if (d == src || !links_.interferes(src, d, ps)) continue;
      nbr.push_back(d);
      suc.push_back(links_.packet_success(src, d, ps));
    }
  }
  cache.clear_dirty(src);
  // A row may hold any id below the topology size: each needs a Listener.
  if (listeners_.size() < topo_.size()) listeners_.resize(topo_.size());
  metrics_.add(m_cache_repairs_);
}

std::pair<std::vector<NodeId>, std::vector<double>>
Channel::neighbor_row_for_test(double power_scale, NodeId src) const {
  ScaleCache& cache = scale_for(power_scale);
  if (src >= cache.neighbors.size()) return {};
  ensure_row(cache, src);
  return {cache.neighbors[src], cache.success[src]};
}

bool Channel::carrier_busy(NodeId listener) const {
  if (params_.neighbor_cache) {
    if (active_.empty()) return false;
    if (listener < own_in_flight_.size() && own_in_flight_[listener] != 0) {
      return true;  // own transmission in flight
    }
    sync_world();  // reach must reflect the rows as they are now
    return listener < listeners_.size() && listeners_[listener].reach != 0;
  }
  for (const auto& tx : active_) {
    if (tx->src == listener) return true;
    if (links_.interferes(tx->src, listener, tx->pkt().power_scale)) return true;
  }
  return false;
}

Channel::Active& Channel::acquire_active() {
  if (free_records_.empty()) return records_.emplace_back();
  Active* tx = free_records_.back();
  free_records_.pop_back();
  return *tx;
}

void Channel::count_collisions(NodeId victim, std::uint32_t n) {
  metrics_.add(m_collisions_, victim, n);
  if (observer_) {
    for (; n != 0; --n) observer_->on_collision(victim, sim_.now());
  }
}

void Channel::count_bulk_overlap() { metrics_.add(m_bulk_overlaps_); }

namespace {

/// True when receptions and an id list, both ascending by id, share an id.
template <typename Rx>
bool intersects(const std::vector<Rx>& a, const std::vector<NodeId>& b) {
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    const NodeId x = i->id;
    if (x < *j) {
      ++i;
    } else if (*j < x) {
      ++j;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace

void Channel::begin_transmission(NodeId src, Packet pkt) {
  begin_transmission(src, pool_.adopt(std::move(pkt)));
}

void Channel::begin_transmission(NodeId src, FramePtr frame) {
  Active& tx = acquire_active();
  tx.src = src;
  tx.start = sim_.now();
  tx.end = sim_.now() + airtime(*frame);
  tx.bulk = is_bulk_data(frame->type());
  tx.frame = std::move(frame);
  metrics_.add(m_tx_, src);
  if (observer_) observer_->on_transmit(src, tx.pkt(), sim_.now());

  // Candidate receivers: every node currently listening whose radio hears
  // this source at all (interference reach, not just decode reach). The
  // decode probability rides along so delivery never re-queries the link
  // model. Both paths enumerate in ascending node order, and the listening
  // filter reads the SoA byte array — no Radio dereference per neighbor.
  if (params_.neighbor_cache) {
    enroll_cached(tx);
  } else {
    enroll_oracle(tx);
  }

  tx.index = active_.size();
  active_.push_back(&tx);
  Active* record = &tx;
  sim_.scheduler().post_at(tx.end,
                           [this, record] { end_transmission(*record); });
}

void Channel::enroll_cached(Active& tx) {
  const NodeId src = tx.src;
  ScaleCache& cache = scale_for(tx.pkt().power_scale);
  if (src >= own_in_flight_.size()) own_in_flight_.resize(src + 1, 0);
  ++own_in_flight_[src];
  if (src >= topo_.size()) return;  // reaches nobody
  ensure_row(cache, src);
  const std::vector<NodeId>& row = cache.neighbors[src];
  const std::vector<double>& success = cache.success[src];
  tx.reached.assign(row.begin(), row.end());
  // Rows hold ids below the topology size, which listening_ and
  // listeners_ both cover. The walk takes no branch on listener state:
  // every entry writes a reception at the cursor, which only a listening
  // node advances past (so a reception never overtakes its entry).
  assert(listening_.size() >= topo_.size());
  tx.receptions.resize(row.size());
  Reception* const out = tx.receptions.data();
  std::size_t k = 0;
  for (std::size_t i = 0; i < row.size(); ++i) {
    const NodeId r = row[i];
    Listener& at = listeners_[r];
    const std::uint32_t live = at.live;
    const std::uint32_t hit = at.reach != 0;
    const std::uint32_t listening = listening_[r];
    // A listener reached by two sources decodes neither packet: every
    // reception still alive here dies now, and this one is born dead if
    // another in-flight row holds r.
    at.epoch += live != 0;
    at.live = listening & (hit ^ 1u);
    ++at.reach;
    out[k] = Reception{success[i], r, static_cast<std::uint8_t>(hit),
                       at.epoch};
    k += listening;
    const std::uint32_t collisions = live + (listening & hit);
    if (collisions != 0) count_collisions(r, collisions);
  }
  tx.receptions.resize(k);

  // Concurrent bulk-sender monitor (paper: "at most one sender active in
  // any neighborhood"): two overlapping code transmissions whose sources
  // interfere with each other or share a reachable listener.
  if (!tx.bulk) return;
  for (const auto& other : active_) {
    if (!other->bulk) continue;
    const bool mutual =
        std::binary_search(tx.reached.begin(), tx.reached.end(), other->src) ||
        std::binary_search(other->reached.begin(), other->reached.end(), src);
    if (mutual || intersects(tx.receptions, other->reached)) {
      count_bulk_overlap();
    }
  }
}

void Channel::enroll_oracle(Active& tx) {
  const NodeId src = tx.src;
  const double ps = tx.pkt().power_scale;
  for (NodeId id = 0; id < radios_.size(); ++id) {
    if (id == src || id >= listening_.size() || !listening_[id]) continue;
    if (!links_.interferes(src, id, ps)) continue;
    tx.receptions.push_back(
        Reception{links_.packet_success(src, id, ps), id, 0, 0});
  }

  // Cross-corruption with every transmission already in flight: a listener
  // reached by both sources decodes neither packet.
  for (const auto& other : active_) {
    const auto other_reaches = [&](NodeId at) {
      return links_.interferes(other->src, at, other->pkt().power_scale);
    };
    const auto tx_reaches = [&](NodeId at) {
      return links_.interferes(src, at, ps);
    };
    for (Reception& c : tx.receptions) {
      if (!c.corrupted && other_reaches(c.id)) {
        c.corrupted = 1;
        count_collisions(c.id, 1);
      }
    }
    for (Reception& c : other->receptions) {
      if (!c.corrupted && tx_reaches(c.id)) {
        c.corrupted = 1;
        count_collisions(c.id, 1);
      }
    }
    // Concurrent bulk-sender monitor, as in enroll_cached.
    if (tx.bulk && other->bulk) {
      const bool mutual = tx_reaches(other->src) || other_reaches(src);
      bool shared_victim = false;
      if (!mutual) {
        for (const Reception& c : tx.receptions) {
          if (other_reaches(c.id)) {
            shared_victim = true;
            break;
          }
        }
      }
      if (mutual || shared_victim) count_bulk_overlap();
    }
  }
}

void Channel::radio_started_listening(NodeId id) {
  if (id >= listening_.size()) listening_.resize(id + 1, 0);
  listening_[id] = 1;
}

void Channel::radio_stopped_listening(NodeId id) {
  if (id < listening_.size()) listening_[id] = 0;
  // Mid-packet loss of the listener: every packet in flight to it is gone.
  if (params_.neighbor_cache) {
    if (id < listeners_.size() && listeners_[id].live != 0) {
      listeners_[id].live = 0;
      ++listeners_[id].epoch;
    }
    return;
  }
  for (const auto& tx : active_) {
    // Receptions are ascending by id, so membership is a binary search.
    auto& rx = tx->receptions;
    const auto it = std::lower_bound(
        rx.begin(), rx.end(), id,
        [](const Reception& c, NodeId v) { return c.id < v; });
    if (it != rx.end() && it->id == id) it->corrupted = 1;
  }
}

void Channel::unlink_active(const Active& tx) {
  const std::size_t idx = tx.index;
  const std::size_t last = active_.size() - 1;
  if (idx != last) {
    active_[idx] = active_[last];
    active_[idx]->index = idx;
  }
  active_.pop_back();
}

void Channel::settle_cached(Active& tx) {
  --own_in_flight_[tx.src];
  for (const NodeId r : tx.reached) --listeners_[r].reach;
  // A live reception whose listener's epoch moved was killed in flight;
  // every other live one leaves the listener's live count.
  for (Reception& c : tx.receptions) {
    Listener& at = listeners_[c.id];
    const std::uint32_t ok = (c.corrupted ^ 1u) & (at.epoch == c.epoch);
    at.live -= ok;
    c.corrupted = static_cast<std::uint8_t>(ok ^ 1u);
  }
}

void Channel::end_transmission(Active& tx) {
  unlink_active(tx);
  if (params_.neighbor_cache) settle_cached(tx);
  for (const Reception& c : tx.receptions) {
    // Rng::bernoulli answers false without drawing for p <= 0, so the
    // skip keeps the stream as it was (a NaN still draws).
    if (c.corrupted || c.success <= 0.0) continue;
    const NodeId r = c.id;
    if (r >= listening_.size() || !listening_[r]) continue;
    Radio* radio = radios_[r];
    if (!radio) continue;
    if (!rng_.bernoulli(c.success)) continue;
    metrics_.add(m_delivered_, r);
    if (observer_) observer_->on_deliver(tx.src, r, tx.pkt(), sim_.now());
    // Every receiver reads the one shared immutable frame.
    radio->deliver(tx.pkt());
  }
  // Recycle the record; its vectors keep their capacity.
  tx.frame.reset();
  tx.receptions.clear();
  tx.reached.clear();
  free_records_.push_back(&tx);
}

}  // namespace mnp::net
