#include "network/route_cache.hpp"

#include <gtest/gtest.h>

namespace xts::net {
namespace {

// Routes from node 0 of a 4x4x1 torus, one per destination.
Route route_to(NodeId dst) {
  Route r;
  Torus3D({4, 4, 1}).route_into(0, dst, r);
  return r;
}

TEST(RouteCache, HitPromotesSoInsertAtCapacityEvictsTheOtherEntry) {
  RouteCache cache(2);
  Route out;
  EXPECT_FALSE(cache.lookup(0, 1, out));
  cache.insert(0, 1, route_to(1));
  cache.insert(0, 2, route_to(2));  // MRU..LRU: (0,2) (0,1)
  ASSERT_TRUE(cache.lookup(0, 1, out));  // promoted: (0,1) (0,2)
  EXPECT_TRUE(out == route_to(1));
  cache.insert(0, 3, route_to(3));  // evicts (0,2), the LRU pair
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.lookup(0, 2, out));
  ASSERT_TRUE(cache.lookup(0, 1, out));
  EXPECT_TRUE(out == route_to(1));
  ASSERT_TRUE(cache.lookup(0, 3, out));
  EXPECT_TRUE(out == route_to(3));
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 2u);
}

// Evictions keep following recency once slots are being recycled,
// including when the entry promoted is the LRU tail itself.
TEST(RouteCache, EvictsLeastRecentlyUsedAcrossRecycledSlots) {
  RouteCache cache(3);
  Route out;
  for (NodeId d = 1; d <= 3; ++d) cache.insert(0, d, route_to(d));
  cache.insert(0, 4, route_to(4));       // evicts 1; MRU..LRU: 4 3 2
  ASSERT_TRUE(cache.lookup(0, 2, out));  // the tail moves up: 2 4 3
  EXPECT_TRUE(out == route_to(2));
  cache.insert(0, 5, route_to(5));       // evicts 3: 5 2 4
  cache.insert(0, 6, route_to(6));       // evicts 4: 6 5 2
  EXPECT_EQ(cache.evictions(), 3u);
  for (const NodeId gone : {1, 3, 4}) EXPECT_FALSE(cache.lookup(0, gone, out));
  for (const NodeId kept : {2, 5, 6}) {
    ASSERT_TRUE(cache.lookup(0, kept, out));
    EXPECT_TRUE(out == route_to(kept));
  }
}

}  // namespace
}  // namespace xts::net
