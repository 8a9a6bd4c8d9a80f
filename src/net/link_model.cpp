#include "net/link_model.hpp"

#include <algorithm>

namespace mnp::net {

DiskLinkModel::DiskLinkModel(const Topology& topo, double range_ft,
                             double interference_factor)
    : topo_(topo), range_(range_ft), interference_factor_(interference_factor) {}

double DiskLinkModel::packet_success(NodeId src, NodeId dst,
                                     double power_scale) const {
  if (src == dst) return 0.0;
  return topo_.node_distance(src, dst) <= range_ * power_scale ? 1.0 : 0.0;
}

bool DiskLinkModel::interferes(NodeId src, NodeId dst, double power_scale) const {
  if (src == dst) return false;
  return topo_.node_distance(src, dst) <=
         range_ * interference_factor_ * power_scale;
}

EmpiricalLinkModel::EmpiricalLinkModel(const Topology& topo, Params params,
                                       sim::Rng rng)
    : topo_(topo), params_(params), n_(topo.size()) {
  noise_.resize(n_ * n_, 0.0);
  for (std::size_t i = 0; i < n_ * n_; ++i) {
    // Each directed edge gets its own perturbation: links are asymmetric,
    // exactly as in TOSSIM's empirically derived graphs.
    noise_[i] = rng.normal(0.0, params_.edge_noise_stddev);
  }
}

double EmpiricalLinkModel::base_success(double u, const Params& params) {
  // u = distance / effective_range.
  //  - inside gray_start: near-perfect (0.98; real radios are never 1.0)
  //  - gray area: smooth quadratic fall-off to 0 at gray_end
  //  - beyond gray_end: 0
  if (u <= params.gray_start) return 0.98;
  if (u >= params.gray_end) return 0.0;
  const double t = (u - params.gray_start) / (params.gray_end - params.gray_start);
  return 0.98 * (1.0 - t) * (1.0 - t);
}

double EmpiricalLinkModel::edge_noise(NodeId src, NodeId dst) const {
  return noise_[static_cast<std::size_t>(src) * n_ + dst];
}

double EmpiricalLinkModel::packet_success(NodeId src, NodeId dst,
                                          double power_scale) const {
  if (src == dst || src >= n_ || dst >= n_) return 0.0;
  const double effective_range = params_.range_ft * power_scale;
  if (effective_range <= 0.0) return 0.0;
  const double u = topo_.node_distance(src, dst) / effective_range;
  const double base = base_success(u, params_);
  if (base <= 0.0) return 0.0;
  return std::clamp(base + edge_noise(src, dst), 0.0, 1.0);
}

bool EmpiricalLinkModel::interferes(NodeId src, NodeId dst,
                                    double power_scale) const {
  if (src == dst || src >= n_ || dst >= n_) return false;
  return topo_.node_distance(src, dst) <=
         params_.range_ft * params_.interference_factor * power_scale;
}

}  // namespace mnp::net
