#include "core/resource.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/task.hpp"

namespace xts {
namespace {

TEST(SharedServer, SingleJobRunsAtFullCapacity) {
  Engine e;
  SharedServer server(e, 10.0);  // 10 units/s
  SimTime done = -1.0;
  spawn(e, [](Engine& eng, SharedServer& s, SimTime& out) -> Task<void> {
    (void)co_await s.consume(50.0);
    out = eng.now();
  }(e, server, done));
  e.run();
  EXPECT_DOUBLE_EQ(done, 5.0);
  EXPECT_DOUBLE_EQ(server.total_served(), 50.0);
}

TEST(SharedServer, TwoEqualJobsEachGetHalf) {
  Engine e;
  SharedServer server(e, 10.0);
  std::vector<SimTime> done(2, -1.0);
  for (int i = 0; i < 2; ++i) {
    spawn(e, [](Engine& eng, SharedServer& s, SimTime& out) -> Task<void> {
      (void)co_await s.consume(50.0);
      out = eng.now();
    }(e, server, done[static_cast<size_t>(i)]));
  }
  e.run();
  EXPECT_DOUBLE_EQ(done[0], 10.0);
  EXPECT_DOUBLE_EQ(done[1], 10.0);
}

TEST(SharedServer, LateArrivalSlowsFirstJob) {
  Engine e;
  SharedServer server(e, 10.0);
  SimTime first = -1.0, second = -1.0;
  spawn(e, [](Engine& eng, SharedServer& s, SimTime& out) -> Task<void> {
    (void)co_await s.consume(100.0);
    out = eng.now();
  }(e, server, first));
  spawn(e, [](Engine& eng, SharedServer& s, SimTime& out) -> Task<void> {
    co_await Delay(eng, 5.0);
    (void)co_await s.consume(25.0);
    out = eng.now();
  }(e, server, second));
  e.run();
  // First job: 50 units in [0,5] at rate 10, shares [5,10] at rate 5
  // (25 units), finishing the last 25 alone: 10 + 2.5 = 12.5 s.
  // Second job: 25 units at rate 5 -> done at t=10.
  EXPECT_DOUBLE_EQ(second, 10.0);
  EXPECT_DOUBLE_EQ(first, 12.5);
}

TEST(SharedServer, ZeroAmountCompletesImmediately) {
  Engine e;
  SharedServer server(e, 1.0);
  SimTime done = -1.0;
  spawn(e, [](Engine& eng, SharedServer& s, SimTime& out) -> Task<void> {
    (void)co_await s.consume(0.0);
    out = eng.now();
  }(e, server, done));
  e.run();
  EXPECT_DOUBLE_EQ(done, 0.0);
}

TEST(SharedServer, RejectsInvalidArguments) {
  Engine e;
  EXPECT_THROW(SharedServer(e, 0.0), UsageError);
  EXPECT_THROW(SharedServer(e, -5.0), UsageError);
  SharedServer server(e, 1.0);
  EXPECT_THROW((void)server.consume(-1.0), UsageError);
}

TEST(SharedServer, ConservationAcrossManyJobs) {
  Engine e;
  SharedServer server(e, 7.0);
  double total = 0.0;
  for (int i = 1; i <= 20; ++i) {
    const double amount = static_cast<double>(i) * 3.0;
    total += amount;
    spawn(e, [](Engine& eng, SharedServer& s, double amt, int delay)
                 -> Task<void> {
      co_await Delay(eng, static_cast<double>(delay));
      (void)co_await s.consume(amt);
    }(e, server, amount, i % 5));
  }
  e.run();
  EXPECT_NEAR(server.total_served(), total, 1e-6);
  EXPECT_EQ(server.active_jobs(), 0u);
}

// Parameterized fairness property: N identical jobs all finish at
// N * amount / capacity, regardless of N.
class SharedServerFairness : public ::testing::TestWithParam<int> {};

TEST_P(SharedServerFairness, EqualJobsFinishTogetherAtScaledTime) {
  const int n = GetParam();
  Engine e;
  SharedServer server(e, 4.0);
  std::vector<SimTime> done(static_cast<size_t>(n), -1.0);
  for (int i = 0; i < n; ++i) {
    spawn(e, [](Engine& eng, SharedServer& s, SimTime& out) -> Task<void> {
      (void)co_await s.consume(8.0);
      out = eng.now();
    }(e, server, done[static_cast<size_t>(i)]));
  }
  e.run();
  const double expected = static_cast<double>(n) * 8.0 / 4.0;
  for (const auto t : done) EXPECT_NEAR(t, expected, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Counts, SharedServerFairness,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 33));

TEST(SharedServer, NoLivelockAtLargeSimulatedTimes) {
  // Regression: late in a long simulation the clock ulp exceeds a tiny
  // completion threshold; a rounding residue then schedules completion
  // events that cannot advance time.  Two equal jobs finishing
  // simultaneously at t ~ 1e5 s used to spin forever.
  Engine e;
  SharedServer server(e, 3.5e9, "mem", 3.5e9);
  int finished = 0;
  for (int i = 0; i < 2; ++i) {
    spawn(e, [](Engine& eng, SharedServer& s, int& count) -> Task<void> {
      co_await Delay(eng, 72360.476428278285);
      (void)co_await s.consume(7.34e13);
      ++count;
    }(e, server, finished));
  }
  e.run();
  EXPECT_EQ(finished, 2);
  EXPECT_LT(e.events_processed(), 1000u);
}

TEST(FifoResource, GrantsInFifoOrder) {
  Engine e;
  FifoResource res(e);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    spawn(e, [](Engine& eng, FifoResource& r, std::vector<int>& log,
                int id) -> Task<void> {
      (void)co_await r.acquire();
      log.push_back(id);
      co_await Delay(eng, 1.0);
      r.release();
    }(e, res, order, i));
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_FALSE(res.busy());
}

TEST(FifoResource, ReleaseWithoutHoldThrows) {
  Engine e;
  FifoResource res(e);
  EXPECT_THROW(res.release(), UsageError);
}

TEST(FifoResource, SerializesCriticalSections) {
  Engine e;
  FifoResource res(e);
  int inside = 0;
  int max_inside = 0;
  for (int i = 0; i < 10; ++i) {
    spawn(e, [](Engine& eng, FifoResource& r, int& in, int& mx) -> Task<void> {
      (void)co_await r.acquire();
      ++in;
      mx = std::max(mx, in);
      co_await Delay(eng, 0.5);
      --in;
      r.release();
    }(e, res, inside, max_inside));
  }
  e.run();
  EXPECT_EQ(max_inside, 1);
}

TEST(FifoResource, TwoSlotsAdmitTwoThenGrantInArrivalOrder) {
  Engine e;
  FifoResource res(e, 2);
  std::vector<int> order;
  std::vector<SimTime> granted(4, -1.0);
  const SimTime hold[4] = {3.0, 1.0, 1.0, 1.0};
  for (int i = 0; i < 4; ++i) {
    spawn(e, [](Engine& eng, FifoResource& r, std::vector<int>& log,
                std::vector<SimTime>& at, int id, SimTime h) -> Task<void> {
      (void)co_await r.acquire();
      log.push_back(id);
      at[static_cast<std::size_t>(id)] = eng.now();
      co_await Delay(eng, h);
      r.release();
    }(e, res, order, granted, i, hold[i]));
  }
  std::size_t waiting = 0;
  bool busy = false;
  spawn(e, [](FifoResource& r, std::size_t& w, bool& b) -> Task<void> {
    w = r.waiters();
    b = r.busy();
    co_return;
  }(res, waiting, busy));
  e.run();
  EXPECT_EQ(waiting, 2u);  // holders 0 and 1; 2 and 3 queue
  EXPECT_TRUE(busy);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  // 1 frees a slot at t=1 for 2, which frees it at t=2 for 3.
  EXPECT_EQ(granted, (std::vector<SimTime>{0.0, 0.0, 1.0, 2.0}));
  EXPECT_FALSE(res.busy());
  EXPECT_EQ(res.waiters(), 0u);
}

TEST(FifoResource, FewerThanOneSlotThrows) {
  Engine e;
  EXPECT_THROW({ FifoResource r(e, 0); }, UsageError);
  EXPECT_THROW({ FifoResource r(e, -1); }, UsageError);
}

}  // namespace
}  // namespace xts
