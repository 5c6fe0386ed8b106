#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

namespace xts {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0.0);
  EXPECT_EQ(e.events_processed(), 0u);
  EXPECT_EQ(e.events_pending(), 0u);
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 3.0);
}

TEST(Engine, SameTimeEventsFireInScheduleOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i)
    e.schedule_at(1.0, [&order, i] { order.push_back(i); });
  e.run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Engine, EventsCanScheduleMoreEvents) {
  Engine e;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 10) e.schedule_after(1.0, chain);
  };
  e.schedule_after(1.0, chain);
  e.run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(e.now(), 10.0);
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine e;
  e.schedule_at(5.0, [&] {
    EXPECT_THROW(e.schedule_at(1.0, [] {}), UsageError);
  });
  e.run();
}

TEST(Engine, NegativeDelayThrows) {
  Engine e;
  EXPECT_THROW(e.schedule_after(-1.0, [] {}), UsageError);
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine e;
  EXPECT_FALSE(e.step());
}

TEST(Engine, SameInstantFifoAndHeapInterleaveBySequence) {
  // Events landing at the same instant fire in schedule order even when
  // some were scheduled earlier (heap) and some at that instant (FIFO).
  Engine e;
  std::vector<int> order;
  e.schedule_at(1.0, [&] {
    order.push_back(0);
    // Scheduled *at* t=1 while now()==1: takes the same-instant lane.
    e.schedule_after(0.0, [&] { order.push_back(2); });
    e.schedule_at(1.0, [&] { order.push_back(3); });
  });
  e.schedule_at(1.0, [&] { order.push_back(1); });  // heap, seq 1
  e.schedule_at(2.0, [&] { order.push_back(4); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, ZeroDelayStormPreservesFifoOrder) {
  // Grow the same-instant ring through several reallocations.
  Engine e;
  std::vector<int> order;
  e.schedule_at(1.0, [&] {
    for (int i = 0; i < 500; ++i)
      e.schedule_after(0.0, [&order, i] { order.push_back(2 * i); });
  });
  e.schedule_at(1.0, [&] {
    for (int i = 0; i < 500; ++i)
      e.schedule_after(0.0, [&order, i] { order.push_back(2 * i + 1); });
  });
  e.run();
  // Both batches were enqueued before any ring entry fired, so the ring
  // drains the first batch (even values), then the second (odd values).
  ASSERT_EQ(order.size(), 1000u);
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], 2 * i);
    EXPECT_EQ(order[static_cast<size_t>(500 + i)], 2 * i + 1);
  }
  EXPECT_EQ(e.now(), 1.0);
}

TEST(Engine, LargeAndNonTrivialCapturesAreBoxedCorrectly) {
  // Callables that exceed the inline buffer (or are not trivially
  // copyable) take the heap-boxed path of InlineFn.
  Engine e;
  auto big = std::make_shared<std::vector<int>>(100, 7);
  long sum = 0;
  double pad[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  e.schedule_at(1.0, [big, &sum] { sum += (*big)[99]; });   // non-trivial
  e.schedule_at(2.0, [pad, &sum] { sum += static_cast<long>(pad[7]); });
  e.run();
  EXPECT_EQ(sum, 15);
  EXPECT_EQ(big.use_count(), 1);  // boxed copy destroyed after firing
}

// A throwing handler propagates out of run() and leaves the events
// behind it queued; a later run() executes them in order.
TEST(Engine, ThrowingHandlerLeavesRestQueued) {
  Engine e;
  std::vector<int> fired;
  e.schedule_at(1.0, [&] { fired.push_back(1); });
  e.schedule_at(2.0, [] { throw SimError("boom"); });
  e.schedule_at(3.0, [&] { fired.push_back(3); });
  e.schedule_at(4.0, [&] { fired.push_back(4); });
  EXPECT_THROW(e.run(), SimError);
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_EQ(e.events_pending(), 2u);
  e.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 3, 4}));
  EXPECT_EQ(e.events_pending(), 0u);
}

TEST(Engine, EventCountersTrack) {
  Engine e;
  for (int i = 0; i < 5; ++i) e.schedule_at(static_cast<double>(i), [] {});
  EXPECT_EQ(e.events_pending(), 5u);
  e.run();
  EXPECT_EQ(e.events_processed(), 5u);
  EXPECT_EQ(e.events_pending(), 0u);
}

}  // namespace
}  // namespace xts
