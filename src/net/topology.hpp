// Node placement. The paper's deployments are all regular grids (indoor
// classroom, grass field, and the TOSSIM simulations), so grids get a
// first-class builder; arbitrary placements are supported for tests.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/packet.hpp"

namespace mnp::net {

struct Position {
  double x = 0.0;  // feet
  double y = 0.0;  // feet
};

// Deployment bounds, owned here because two surfaces enforce them: the
// config schema bounds grid sides and distances (harness/config_schema),
// and the scenario engine bounds waypoints to the same field. Every node
// then sits within kMaxCoordinateFt of the origin on each axis, which
// keeps the spatial grid's int32 cell coordinates in range.
inline constexpr double kMaxNodesPerSide = 65535;
inline constexpr double kMaxDistanceFt = 1000;
inline constexpr double kMaxCoordinateFt =
    (kMaxNodesPerSide - 1) * kMaxDistanceFt;

inline double distance(const Position& a, const Position& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

class Topology {
 public:
  /// One recorded position mutation: after applying it the topology was at
  /// `version`, node `node` having left `from` for `to`. Consumers that
  /// cache position-derived state (the Channel's spatial grid) replay these
  /// to repair incrementally instead of rebuilding from scratch.
  struct MoveRecord {
    std::uint64_t version = 0;
    NodeId node = 0;
    Position from;
    Position to;
  };

  Topology() = default;
  explicit Topology(std::vector<Position> positions)
      : positions_(std::move(positions)) {}

  /// rows x cols grid with `spacing_ft` between adjacent nodes; node id
  /// r*cols + c sits at (c*spacing, r*spacing). All paper deployments use
  /// this layout with the base station at a corner.
  static Topology grid(std::size_t rows, std::size_t cols, double spacing_ft);

  std::size_t size() const { return positions_.size(); }
  const Position& position(NodeId id) const { return positions_.at(id); }
  double node_distance(NodeId a, NodeId b) const {
    return distance(position(a), position(b));
  }

  void add(Position p) { positions_.push_back(p); }

  /// Moves a node (scenario mobility). Bumps version() so consumers that
  /// cache anything derived from positions — notably the Channel's
  /// per-power-scale adjacency — can detect staleness, and logs the move
  /// (bounded ring) so they can repair incrementally via moves_since().
  void set_position(NodeId id, Position p);

  /// Monotone counter incremented on every position mutation. A topology
  /// that has never moved reports 0.
  std::uint64_t version() const { return version_; }

  /// Appends every logged move with version > `since`, oldest first, to
  /// `out`. Returns false when the ring no longer reaches back to `since`
  /// (the consumer fell too far behind and must rebuild from scratch).
  bool moves_since(std::uint64_t since, std::vector<MoveRecord>& out) const;

  /// Grid helpers (only meaningful for grid-built topologies).
  std::size_t grid_rows() const { return rows_; }
  std::size_t grid_cols() const { return cols_; }
  double grid_spacing() const { return spacing_; }
  bool is_grid() const { return rows_ > 0; }

 private:
  /// Move-log depth. Mobility produces one entry per interpolation tick
  /// and the Channel drains the log on its next transmission, so the ring
  /// only needs to cover the moves between two packets — 4096 is orders of
  /// magnitude more than any scenario produces in that window.
  static constexpr std::size_t kMoveLogCapacity = 4096;

  std::vector<Position> positions_;
  std::vector<MoveRecord> move_log_;  // ring, slot = version % capacity
  std::uint64_t version_ = 0;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  double spacing_ = 0.0;
};

}  // namespace mnp::net
