// Unit tests for the disk and empirical link models.
#include <gtest/gtest.h>

#include <cmath>

#include "net/link_model.hpp"

namespace mnp::net {
namespace {

Topology line_topology(double spacing, std::size_t n) {
  Topology t;
  for (std::size_t i = 0; i < n; ++i) {
    t.add({static_cast<double>(i) * spacing, 0.0});
  }
  return t;
}

TEST(DiskLinkModel, PerfectInsideRangeNothingOutside) {
  Topology t = line_topology(10.0, 5);
  DiskLinkModel m(t, 25.0);
  EXPECT_DOUBLE_EQ(m.packet_success(0, 1, 1.0), 1.0);  // 10 ft
  EXPECT_DOUBLE_EQ(m.packet_success(0, 2, 1.0), 1.0);  // 20 ft
  EXPECT_DOUBLE_EQ(m.packet_success(0, 3, 1.0), 0.0);  // 30 ft
  EXPECT_DOUBLE_EQ(m.packet_success(2, 2, 1.0), 0.0);  // self
}

TEST(DiskLinkModel, PowerScaleShrinksRange) {
  Topology t = line_topology(10.0, 5);
  DiskLinkModel m(t, 25.0);
  EXPECT_DOUBLE_EQ(m.packet_success(0, 2, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(m.packet_success(0, 2, 0.5), 0.0);  // 12.5 ft reach
  EXPECT_DOUBLE_EQ(m.packet_success(0, 1, 0.5), 1.0);
}

TEST(DiskLinkModel, InterferenceReachesFarther) {
  Topology t = line_topology(10.0, 6);
  DiskLinkModel m(t, 25.0, 1.6);  // interferes to 40 ft
  EXPECT_DOUBLE_EQ(m.packet_success(0, 4, 1.0), 0.0);  // 40 ft: no decode
  EXPECT_TRUE(m.interferes(0, 4, 1.0));                // ...but audible
  EXPECT_FALSE(m.interferes(0, 5, 1.0));               // 50 ft: silence
  EXPECT_FALSE(m.interferes(3, 3, 1.0));               // self
}

TEST(EmpiricalLinkModel, BaseCurveShape) {
  EmpiricalLinkModel::Params p;
  // Near-perfect close in, zero beyond the gray area, monotone between.
  EXPECT_NEAR(EmpiricalLinkModel::base_success(0.1, p), 0.98, 1e-9);
  EXPECT_NEAR(EmpiricalLinkModel::base_success(p.gray_start, p), 0.98, 1e-9);
  EXPECT_DOUBLE_EQ(EmpiricalLinkModel::base_success(p.gray_end, p), 0.0);
  EXPECT_DOUBLE_EQ(EmpiricalLinkModel::base_success(2.0, p), 0.0);
  double prev = 1.0;
  for (double u = 0.5; u <= 1.1; u += 0.05) {
    const double s = EmpiricalLinkModel::base_success(u, p);
    EXPECT_LE(s, prev + 1e-12) << "not monotone at u=" << u;
    prev = s;
  }
}

TEST(EmpiricalLinkModel, LinksAreAsymmetric) {
  // TOSSIM property: each directed edge has its own quality.
  Topology t = line_topology(18.0, 2);  // inside the gray area for R=25
  EmpiricalLinkModel::Params p;
  p.range_ft = 25.0;
  p.edge_noise_stddev = 0.15;
  bool saw_asymmetry = false;
  for (std::uint64_t seed = 0; seed < 16 && !saw_asymmetry; ++seed) {
    EmpiricalLinkModel m(t, p, sim::Rng(seed));
    if (std::abs(m.packet_success(0, 1, 1.0) - m.packet_success(1, 0, 1.0)) >
        1e-6) {
      saw_asymmetry = true;
    }
  }
  EXPECT_TRUE(saw_asymmetry);
}

TEST(EmpiricalLinkModel, DeterministicForSameSeed) {
  Topology t = line_topology(15.0, 4);
  EmpiricalLinkModel::Params p;
  EmpiricalLinkModel a(t, p, sim::Rng(9));
  EmpiricalLinkModel b(t, p, sim::Rng(9));
  for (NodeId i = 0; i < 4; ++i) {
    for (NodeId j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(a.packet_success(i, j, 1.0), b.packet_success(i, j, 1.0));
    }
  }
}

TEST(EmpiricalLinkModel, ProbabilitiesStayInUnitInterval) {
  Topology t = line_topology(5.0, 10);
  EmpiricalLinkModel::Params p;
  p.edge_noise_stddev = 0.5;  // extreme noise must still clamp
  EmpiricalLinkModel m(t, p, sim::Rng(4));
  for (NodeId i = 0; i < 10; ++i) {
    for (NodeId j = 0; j < 10; ++j) {
      const double s = m.packet_success(i, j, 1.0);
      EXPECT_GE(s, 0.0);
      EXPECT_LE(s, 1.0);
    }
  }
}

TEST(EmpiricalLinkModel, ZeroPowerKillsTheLink) {
  Topology t = line_topology(10.0, 2);
  EmpiricalLinkModel m(t, {}, sim::Rng(1));
  EXPECT_DOUBLE_EQ(m.packet_success(0, 1, 0.0), 0.0);
}

TEST(EmpiricalLinkModel, LowerPowerNeverHelps) {
  // Battery-aware advertising relies on reduced power shrinking coverage.
  Topology t = line_topology(12.0, 4);
  EmpiricalLinkModel m(t, {}, sim::Rng(2));
  for (NodeId j = 1; j < 4; ++j) {
    const double full = m.packet_success(0, j, 1.0);
    const double half = m.packet_success(0, j, 0.5);
    EXPECT_LE(half, full + 1e-12) << "link 0->" << j;
  }
}

}  // namespace
}  // namespace mnp::net
