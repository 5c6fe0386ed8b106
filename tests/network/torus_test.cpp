#include "network/torus.hpp"

#include <gtest/gtest.h>

#include <set>

namespace xts::net {
namespace {

TEST(Torus, ChooseDimsCoversRequest) {
  for (int n : {1, 2, 7, 8, 27, 100, 1000, 5212, 11508}) {
    const auto d = Torus3D::choose_dims(n);
    EXPECT_GE(d.count(), n);
    // Near-cubic: dims within one growth step of each other.
    EXPECT_LE(d.x - d.z, 1);
    EXPECT_LE(d.y - d.z, 1);
  }
  EXPECT_THROW((void)Torus3D::choose_dims(0), UsageError);
}

TEST(Torus, CoordRoundTrips) {
  Torus3D t({4, 3, 5});
  for (NodeId id = 0; id < t.node_count(); ++id) {
    EXPECT_EQ(t.id_of(t.coord_of(id)), id);
  }
  EXPECT_THROW((void)t.coord_of(-1), UsageError);
  EXPECT_THROW((void)t.coord_of(t.node_count()), UsageError);
  EXPECT_THROW((void)t.id_of(Coord{4, 0, 0}), UsageError);
}

TEST(Torus, LinkIdsAreDistinct) {
  Torus3D t({3, 3, 3});
  std::set<LinkId> seen;
  for (NodeId n = 0; n < t.node_count(); ++n) {
    for (int dim = 0; dim < 3; ++dim)
      for (int dir = 0; dir < 2; ++dir)
        EXPECT_TRUE(seen.insert(t.torus_link(n, dim, dir)).second);
    EXPECT_TRUE(seen.insert(t.injection_link(n)).second);
    EXPECT_TRUE(seen.insert(t.ejection_link(n)).second);
  }
  EXPECT_EQ(static_cast<int>(seen.size()), t.total_link_count());
}

TEST(Torus, HopCountUsesWraparound) {
  Torus3D t({8, 1, 1});
  EXPECT_EQ(t.hop_count(0, 1), 1);
  EXPECT_EQ(t.hop_count(0, 4), 4);   // halfway: either way is 4
  EXPECT_EQ(t.hop_count(0, 7), 1);   // wrap
  EXPECT_EQ(t.hop_count(0, 5), 3);   // wrap is shorter
  EXPECT_EQ(t.hop_count(3, 3), 0);
}

TEST(Torus, HopCountSymmetric) {
  Torus3D t({4, 5, 3});
  for (NodeId a = 0; a < t.node_count(); a += 7)
    for (NodeId b = 0; b < t.node_count(); b += 5)
      EXPECT_EQ(t.hop_count(a, b), t.hop_count(b, a));
}

TEST(Torus, RouteLengthMatchesHopCount) {
  Torus3D t({4, 4, 4});
  for (NodeId a = 0; a < t.node_count(); a += 3) {
    for (NodeId b = 0; b < t.node_count(); b += 5) {
      if (a == b) continue;
      Route r;
      t.route_into(a, b, r);
      // injection + hops + ejection
      EXPECT_EQ(static_cast<int>(r.size()), t.hop_count(a, b) + 2);
      EXPECT_EQ(r[0], t.injection_link(a));
      EXPECT_EQ(r.back(), t.ejection_link(b));
    }
  }
}

TEST(Torus, RouteIsContiguousDimensionOrdered) {
  Torus3D t({5, 4, 3});
  const NodeId src = t.id_of({0, 0, 0});
  const NodeId dst = t.id_of({2, 3, 1});
  Route r;
  t.route_into(src, dst, r);
  // x: 2 hops (+), y: 1 hop (wrap, -), z: 1 hop (+). Total 4 torus hops.
  EXPECT_EQ(r.size(), 6u);
  // First torus link leaves src in +x.
  EXPECT_EQ(r[1], t.torus_link(src, 0, 1));
}

TEST(Torus, RouteToSelfThrows) {
  Torus3D t({2, 2, 2});
  Route r;
  EXPECT_THROW(t.route_into(3, 3, r), UsageError);
}

TEST(Torus, DegenerateSingleNode) {
  Torus3D t({1, 1, 1});
  EXPECT_EQ(t.node_count(), 1);
  EXPECT_EQ(t.hop_count(0, 0), 0);
}

// Property: every route's torus links leave a chain of adjacent nodes.
class TorusRouteProperty : public ::testing::TestWithParam<int> {};

TEST_P(TorusRouteProperty, AverageHopsBoundedByDiameter) {
  const int n = GetParam();
  Torus3D t(Torus3D::choose_dims(n));
  const auto d = t.dims();
  const int diameter = d.x / 2 + d.y / 2 + d.z / 2;
  double total = 0;
  int pairs = 0;
  for (NodeId a = 0; a < t.node_count(); a += 11) {
    for (NodeId b = 0; b < t.node_count(); b += 7) {
      if (a == b) continue;
      const int h = t.hop_count(a, b);
      EXPECT_GE(h, 1);
      EXPECT_LE(h, diameter);
      total += h;
      ++pairs;
    }
  }
  if (pairs > 0) {
    EXPECT_LE(total / pairs, static_cast<double>(diameter));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TorusRouteProperty,
                         ::testing::Values(8, 64, 125, 512, 1000));

}  // namespace
}  // namespace xts::net
