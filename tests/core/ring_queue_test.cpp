#include "core/ring_queue.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace xts {
namespace {

// Interleaved pushes and pops move the head around the ring, so later
// growth has to unwrap a ring whose live entries straddle its end.
TEST(RingQueue, KeepsFifoOrderAcrossWrapAroundAndGrowth) {
  RingQueue<int> q;
  EXPECT_TRUE(q.empty());
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3 + round % 4; ++i) q.push_back(next_in++);
    for (int i = 0; i < 2 + round % 3 && !q.empty(); ++i) {
      EXPECT_EQ(q.front(), next_out++);
      q.pop_front();
    }
    EXPECT_EQ(q.size(), static_cast<std::size_t>(next_in - next_out));
  }
  while (!q.empty()) {
    EXPECT_EQ(q.front(), next_out++);
    q.pop_front();
  }
  EXPECT_EQ(next_out, next_in);
  EXPECT_EQ(q.size(), 0u);
}

TEST(RingQueue, PopReleasesWhatTheSlotHeld) {
  RingQueue<std::shared_ptr<int>> q;
  auto p = std::make_shared<int>(7);
  q.push_back(p);
  EXPECT_EQ(p.use_count(), 2);
  q.pop_front();
  EXPECT_EQ(p.use_count(), 1);
}

}  // namespace
}  // namespace xts
