// Link quality models.
//
// TOSSIM models the network as a directed graph whose edges carry
// independent bit-error probabilities sampled from empirical distance/
// loss data — crucially, links are *asymmetric*. EmpiricalLinkModel
// mirrors that: a deterministic distance-based success curve plus a
// per-directed-edge noise term sampled once at construction. DiskLinkModel
// is the idealized unit-disk used by analytic tests.
//
// `power_scale` scales the effective communication range at transmit time
// (radio power level knob; also used by the battery-aware extension).
#pragma once

#include <cstdint>
#include <vector>

#include "net/topology.hpp"
#include "sim/rng.hpp"

namespace mnp::net {

class LinkModel {
 public:
  virtual ~LinkModel() = default;

  /// Probability that a packet from `src` (at `power_scale`) decodes at
  /// `dst`, absent collisions. In [0, 1].
  virtual double packet_success(NodeId src, NodeId dst, double power_scale) const = 0;

  /// True if a transmission from `src` raises energy above the carrier-
  /// sense / interference threshold at `dst`. Interference reaches farther
  /// than reliable decoding — that gap is what creates hidden terminals.
  virtual bool interferes(NodeId src, NodeId dst, double power_scale) const = 0;

  /// Monotone revision counter: bumped whenever the model's answers may
  /// have changed for reasons other than a topology move (e.g. a scenario
  /// decorator opening a partition window). Static models return 0; the
  /// Channel compares this against the value its neighbor caches were
  /// built at and rebuilds on mismatch.
  virtual std::uint64_t revision() const { return 0; }

  /// Upper bound, in feet, on the distance at which interferes() can be
  /// true at `power_scale` — the radius the Channel's spatial-grid index
  /// prunes neighbor queries with. Negative means "no finite bound": the
  /// grid falls back to linear scans (still incremental, just unpruned).
  virtual double max_interference_range(double power_scale) const {
    (void)power_scale;
    return -1.0;
  }

  /// Incremental-invalidation hint: appends to `out` every node whose
  /// links (in either direction) may answer differently now than at
  /// revision `since`. Returns false when the model cannot enumerate the
  /// change set — the caller must then treat every link as changed. The
  /// default covers static models (revision() stays 0, nothing changed).
  virtual bool changed_nodes_since(std::uint64_t since,
                                   std::vector<NodeId>& out) const {
    (void)out;
    return since == revision();
  }
};

/// Ideal unit-disk: perfect delivery within `range_ft`, nothing beyond.
class DiskLinkModel final : public LinkModel {
 public:
  DiskLinkModel(const Topology& topo, double range_ft,
                double interference_factor = 1.0);

  double packet_success(NodeId src, NodeId dst, double power_scale) const override;
  bool interferes(NodeId src, NodeId dst, double power_scale) const override;
  double max_interference_range(double power_scale) const override {
    return range_ * interference_factor_ * power_scale;
  }

 private:
  const Topology& topo_;
  double range_;
  double interference_factor_;
};

/// TOSSIM-like empirical model: deterministic distance curve with a "gray
/// area" between 0.5R and 1.1R, perturbed by per-directed-edge noise.
class EmpiricalLinkModel final : public LinkModel {
 public:
  struct Params {
    double range_ft = 25.0;           // nominal communication range
    double interference_factor = 1.6; // interference reach / decode reach
    double edge_noise_stddev = 0.08;  // per-edge success-probability jitter
    double gray_start = 0.5;          // d/R where quality starts degrading
    double gray_end = 1.1;            // d/R where success reaches ~0
  };

  EmpiricalLinkModel(const Topology& topo, Params params, sim::Rng rng);

  double packet_success(NodeId src, NodeId dst, double power_scale) const override;
  bool interferes(NodeId src, NodeId dst, double power_scale) const override;
  double max_interference_range(double power_scale) const override {
    return params_.range_ft * params_.interference_factor * power_scale;
  }

  /// The deterministic part of the curve, exposed for tests/plots.
  static double base_success(double distance_over_range, const Params& params);

 private:
  double edge_noise(NodeId src, NodeId dst) const;

  const Topology& topo_;
  Params params_;
  std::vector<double> noise_;  // size() x size(), row = src
  std::size_t n_;
};

}  // namespace mnp::net
