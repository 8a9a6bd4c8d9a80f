// Shared wireless channel.
//
// Models what TOSSIM models, plus interference:
//  * per-directed-edge probabilistic decoding (LinkModel),
//  * receiver-side collisions — if two transmissions whose sources both
//    reach a listener overlap in time, the listener decodes neither; this
//    is exactly the mechanism behind the hidden terminal problem the
//    paper's sender selection is designed to avoid,
//  * carrier sense for the CSMA MAC (busy = any in-flight transmission
//    whose source interferes at the listener),
//  * a concurrent-bulk-sender monitor: counts pairs of overlapping code
//    transmissions that share a potential victim — the paper's "at most
//    one sender per neighborhood" claim, made measurable.
//
// A receiver must be listening when a packet *starts* (preamble) and keep
// listening until it ends; going off / transmitting mid-packet drops it.
//
// Hot-path structure (DESIGN.md sections 6 and 11): per transmit power
// scale the channel caches each node's interference neighbor row
// (ascending NodeId, decode success cached per edge). Rows are *sparse*
// and are built and repaired through a spatial-hash grid (SpatialGrid)
// sized to the link model's interference radius, so one row costs
// O(neighbors), not O(N). World changes repair incrementally:
// Topology::set_position and scenario link windows mark only the affected
// sources dirty (per-scale dirty bitset, repaired on next access) instead
// of discarding every cache.
//
// Collision accounting is O(row), independent of how many transmissions
// are in flight: each listener keeps how many in-flight rows hold it
// (`reach`), how many receptions are still alive at it (`live`) and an
// epoch bumped whenever those receptions all die. A transmission walks
// its own row once when it begins and once when it ends; carrier sense
// and a listener going deaf are O(1). The node-listening flags live in a
// struct-of-arrays byte vector so candidate filtering never chases Radio
// pointers.
//
// One fast path, one oracle: the grid-backed row cache above is the only
// cached path, and Params::neighbor_cache=false is its reference — brute-
// force O(N) scans and an all-actives cross-check with no cache at all,
// kept for equivalence diffing. Both enumerate candidates in ascending
// node order, so they consume the RNG identically and whole runs are
// bit-for-bit comparable.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "net/frame.hpp"
#include "net/link_model.hpp"
#include "net/packet.hpp"
#include "net/spatial_grid.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace mnp::net {

class Radio;

/// Per-event hook (the stats collector's per-type split and event log).
/// The channel counts every event in its registry cells itself; the
/// observer is called once per event on top of that.
class ChannelObserver {
 public:
  virtual ~ChannelObserver() = default;
  virtual void on_transmit(NodeId src, const Packet& pkt, sim::Time now) = 0;
  virtual void on_deliver(NodeId src, NodeId dst, const Packet& pkt, sim::Time now) = 0;
  virtual void on_collision(NodeId /*victim*/, sim::Time /*now*/) {}
};

class Channel {
 public:
  struct Params {
    double bitrate_bps = 19200.0;  // Mica-2 CC1000 radio
    /// Debug/reference switch: false reverts to the brute-force O(N)
    /// scans the neighbor cache replaces — the channel's one oracle.
    /// Equivalence-tested against the cached path; keep it for diffing,
    /// never for production runs.
    bool neighbor_cache = true;
  };

  /// Registers the channel's counters (the chan.* names of DESIGN.md
  /// section 9) in `metrics`, which must outlive the channel; every
  /// statistic below is read back from those cells.
  Channel(sim::Simulator& sim, const Topology& topo, const LinkModel& links,
          obs::MetricsRegistry& metrics, Params params);
  /// Default-parameter convenience overload.
  Channel(sim::Simulator& sim, const Topology& topo, const LinkModel& links,
          obs::MetricsRegistry& metrics);

  /// Radios register once at network construction; `radio` must outlive
  /// the channel's use.
  void register_radio(Radio& radio);

  void set_observer(ChannelObserver* observer) { observer_ = observer; }

  /// Time on air for `pkt` at the configured bitrate.
  sim::Time airtime(const Packet& pkt) const;

  /// True if `listener` currently senses energy on the channel.
  bool carrier_busy(NodeId listener) const;

  /// Radio -> channel: `src` began transmitting the shared frame; the
  /// channel schedules delivery/corruption and will keep the medium busy
  /// for its airtime.
  void begin_transmission(NodeId src, FramePtr frame);
  /// Convenience overload: wraps `pkt` into a frame first.
  void begin_transmission(NodeId src, Packet pkt);

  /// Pool all outgoing frames (and their DataMsg payload buffers) are
  /// drawn from. Owned here because the channel is the one object every
  /// radio/MAC/node of a simulation shares.
  FramePool& frame_pool() { return pool_; }

  /// Radio -> channel: this node is no longer listening (turned off or
  /// started transmitting); it loses any packet currently in flight to it.
  void radio_stopped_listening(NodeId id);
  /// Radio -> channel: this node resumed listening (turned on or finished
  /// transmitting). Keeps the channel's listening flags — the SoA array
  /// the candidate filter reads — in step with the radio state machines.
  void radio_started_listening(NodeId id);

  // --- statistics ----------------------------------------------------------
  std::uint64_t transmissions() const { return metrics_.total(m_tx_); }
  std::uint64_t deliveries() const { return metrics_.total(m_delivered_); }
  /// Receiver-side packet corruptions due to overlap.
  std::uint64_t collisions() const { return metrics_.total(m_collisions_); }
  /// Overlapping bulk-data sender pairs that shared a potential victim.
  std::uint64_t concurrent_bulk_overlaps() const {
    return metrics_.total(m_bulk_overlaps_);
  }
  /// Distinct power scales whose neighbor sets have been materialized.
  std::size_t cached_power_scales() const { return scales_.size(); }
  /// Times the world changed under live caches (topology move or link-
  /// model revision bump). Most are answered by incremental dirty-marking;
  /// a change the move/link logs cannot replay discards every cache.
  std::uint64_t cache_invalidations() const {
    return metrics_.total(m_cache_invalidations_);
  }
  /// Neighbor rows (re)built on first touch — first builds and
  /// post-invalidation repairs alike.
  std::uint64_t cache_repairs() const {
    return metrics_.total(m_cache_repairs_);
  }
  /// Spatial-index occupancy (0 until a scale with a finite interference
  /// radius is built).
  std::size_t grid_cells() const { return grid_.cell_count(); }
  std::size_t grid_max_occupancy() const { return grid_.max_occupancy(); }

  /// Test hook: the (neighbors, success) row `src` would transmit with at
  /// `power_scale`, forcing any pending repair first. Lets equivalence
  /// tests diff incremental repair against a from-scratch rebuild.
  std::pair<std::vector<NodeId>, std::vector<double>> neighbor_row_for_test(
      double power_scale, NodeId src) const;

 private:
  /// One candidate receiver of a transmission: a node listening when it
  /// began and within its interference reach.
  struct Reception {
    double success;           // decode probability
    NodeId id;
    std::uint8_t corrupted;   // 0/1
    std::uint32_t epoch;      // cached path: Listener::epoch at enrolment
  };

  struct Active {
    NodeId src;
    FramePtr frame;                  // the one shared copy of the packet
    sim::Time start;
    sim::Time end;
    bool bulk;
    std::size_t index;               // position in active_, for swap-pop
    std::vector<Reception> receptions;  // ascending id
    // Cached path only: the row this transmission is counted into
    // Listener::reach with.
    std::vector<NodeId> reached;

    const Packet& pkt() const { return *frame; }
  };

  /// Per-listener in-flight state of the cached path (index = NodeId).
  struct Listener {
    std::uint32_t reach = 0;  // in-flight transmissions whose row holds it
    std::uint32_t live = 0;   // receptions in flight here, not yet corrupted
    std::uint32_t epoch = 0;  // bumped whenever every live reception dies
  };

  /// Neighbor rows + per-edge decode success for one power scale. Rows
  /// are per-source (struct-of-arrays: ids and success side by side), so
  /// nothing here is O(N^2).
  struct ScaleCache {
    double power_scale = 1.0;
    double radius = -1.0;  // max interference range; < 0 = no finite bound
    std::vector<std::vector<NodeId>> neighbors;  // ascending, per source
    std::vector<std::vector<double>> success;    // parallel to neighbors
    std::vector<std::uint64_t> dirty;            // rows to (re)build on touch
    std::size_t dirty_count = 0;

    bool row_dirty(NodeId src) const {
      return (dirty[src >> 6] >> (src & 63)) & 1u;
    }
    void mark_dirty(NodeId src) {
      std::uint64_t& word = dirty[src >> 6];
      const std::uint64_t bit = std::uint64_t{1} << (src & 63);
      if (!(word & bit)) {
        word |= bit;
        ++dirty_count;
      }
    }
    void clear_dirty(NodeId src) {
      dirty[src >> 6] &= ~(std::uint64_t{1} << (src & 63));
      --dirty_count;
    }
    void mark_all_dirty(std::size_t n) {
      dirty.assign((n + 63) / 64, ~std::uint64_t{0});
      dirty_count = n;
    }
  };

  /// Brings the caches up to date with the world (incremental where the
  /// logs allow, whole-cache discard otherwise), then returns the cache
  /// for `power_scale`, materializing it on first use.
  ScaleCache& scale_for(double power_scale) const;
  ScaleCache& build_scale(double power_scale) const;
  /// Applies pending topology moves / link-revision changes to the grid
  /// and dirty bitsets, then re-counts the reach of every in-flight
  /// transmission whose row changed. Two integer compares when nothing
  /// changed.
  void sync_world() const;
  void refresh_reach() const;
  void apply_move(const Topology::MoveRecord& mv) const;
  /// Marks every source whose row could involve a node at `p` dirty in
  /// `cache` (grid query within the scale's radius; everything when the
  /// radius has no finite bound).
  void mark_neighborhood_dirty(ScaleCache& cache, Position p) const;
  void discard_caches() const;
  /// Repairs `src`'s row if dirty: grid-pruned collect + sort, or linear
  /// scan when no finite radius exists. Identical output either way:
  /// ascending NodeId, self excluded — what the brute-force scans visit.
  void ensure_row(ScaleCache& cache, NodeId src) const {
    if (cache.dirty_count != 0 && cache.row_dirty(src)) rebuild_row(cache, src);
  }
  void rebuild_row(ScaleCache& cache, NodeId src) const;
  void publish_grid_gauges() const;

  /// Fetches a transmission record, recycling a finished one.
  Active& acquire_active();
  /// Cached path: one walk of the source's row enrolls candidates and
  /// settles every collision the new transmission causes or suffers.
  void enroll_cached(Active& tx);
  /// Oracle: O(N) candidate scan, then the all-actives cross-check.
  void enroll_oracle(Active& tx);
  /// Cached path: releases `tx`'s reach and freezes its candidates'
  /// corruption flags. Runs before the first delivery, whose handlers may
  /// turn radios off or start new transmissions.
  void settle_cached(Active& tx);
  /// Counts `n` collisions at `victim`.
  void count_collisions(NodeId victim, std::uint32_t n);
  void count_bulk_overlap();
  /// Delivers `tx` at the end of its airtime and recycles its record.
  void end_transmission(Active& tx);
  void unlink_active(const Active& tx);

  sim::Simulator& sim_;
  const Topology& topo_;
  const LinkModel& links_;
  Params params_;
  sim::Rng rng_;
  FramePool pool_;
  std::vector<Radio*> radios_;  // index = NodeId
  /// Struct-of-arrays mirror of Radio::is_listening(), maintained by the
  /// radio state machines: the candidate filter touches one byte per
  /// neighbor instead of dereferencing a Radio per node.
  std::vector<std::uint8_t> listening_;
  /// Cached path: own transmissions in flight per source (carrier sense's
  /// "own transmission" rule). Grown on demand: radios may use ids beyond
  /// the topology.
  std::vector<std::uint32_t> own_in_flight_;
  /// Cached path's per-listener state, grown with the rows to cover every
  /// id they can hold; mutable because a world change re-counts reach from
  /// const queries.
  mutable std::vector<Listener> listeners_;
  /// Every transmission record the channel has made; a deque so records
  /// keep their address while the end-of-airtime event points at them.
  std::deque<Active> records_;
  std::vector<Active*> free_records_;  // records not in flight
  std::vector<Active*> active_;        // in flight; Active::index is the slot
  // Lazily built, small (one entry per distinct power scale seen); mutable
  // so the const query paths can materialize a scale on first use.
  mutable std::vector<std::unique_ptr<ScaleCache>> scales_;
  /// Sorted (power_scale, index into scales_) pairs: cache lookup is one
  /// lower_bound probe, not a linear scan per transmission.
  mutable std::vector<std::pair<double, std::uint32_t>> scale_index_;
  /// Spatial index behind the row cache; rebuilt whenever the caches are
  /// discarded, repaired via Topology's move log otherwise.
  mutable SpatialGrid grid_;
  // World epoch the caches were synced at: any topology move or link-model
  // revision bump past these marks affected rows dirty, or discards the
  // caches when the change cannot be replayed — mobility must never
  // silently use a stale neighbor row.
  mutable std::uint64_t cache_topo_version_ = 0;
  mutable std::uint64_t cache_links_revision_ = 0;
  // Scratch for sync/rebuild (no per-event allocation in steady state).
  mutable std::vector<Topology::MoveRecord> move_scratch_;
  mutable std::vector<NodeId> link_scratch_;
  mutable std::vector<NodeId> row_scratch_;
  ChannelObserver* observer_ = nullptr;

  // The one home of every channel count (const queries bump the cache
  // counters through it).
  obs::MetricsRegistry& metrics_;
  obs::MetricsRegistry::Counter m_tx_;
  obs::MetricsRegistry::Counter m_delivered_;
  obs::MetricsRegistry::Counter m_collisions_;
  obs::MetricsRegistry::Counter m_bulk_overlaps_;
  obs::MetricsRegistry::Counter m_cache_invalidations_;
  obs::MetricsRegistry::Counter m_cache_repairs_;
  obs::MetricsRegistry::Gauge m_grid_cells_;
  obs::MetricsRegistry::Gauge m_grid_occupancy_;
};

}  // namespace mnp::net
