#include <gtest/gtest.h>

#include <vector>

#include "core/units.hpp"
#include "machine/presets.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/world.hpp"

namespace xts::vmpi {
namespace {

using machine::ExecMode;
using namespace xts::units;

WorldConfig make_cfg(int nranks, ExecMode mode = ExecMode::kVN) {
  WorldConfig cfg;
  cfg.machine = machine::xt4();
  cfg.mode = mode;
  cfg.nranks = nranks;
  return cfg;
}

TEST(P2p, PayloadArrivesIntact) {
  World w(make_cfg(2));
  Message received;
  w.run([&](Comm& c) -> Task<void> {
    if (c.rank() == 0) {
      std::vector<double> payload;
      payload.push_back(1.0);
      payload.push_back(2.5);
      payload.push_back(-3.0);
      auto fut = co_await c.send(1, 7, std::move(payload));
      (void)co_await std::move(fut);
    } else {
      received = co_await c.recv(0, 7);
    }
  });
  EXPECT_EQ(received.data, (std::vector<double>{1.0, 2.5, -3.0}));
  EXPECT_EQ(received.src, 0);
  EXPECT_EQ(received.tag, 7);
  EXPECT_DOUBLE_EQ(received.bytes, 24.0);
}

TEST(P2p, LatencyIsMicrosecondScale) {
  World w(make_cfg(2, ExecMode::kSN));
  SimTime arrival = -1.0;
  w.run([&](Comm& c) -> Task<void> {
    if (c.rank() == 0) {
      (void)co_await c.send(1, 0, 8.0);
    } else {
      (void)co_await c.recv(0, 0);
      arrival = c.now();
    }
  });
  // XT4 SN-mode zero-ish-byte latency ~4.5 us (Fig 2).
  EXPECT_GT(arrival, 3.0 * us);
  EXPECT_LT(arrival, 7.0 * us);
}

TEST(P2p, TagMatchingIsSelective) {
  World w(make_cfg(2));
  std::vector<int> order;
  w.run([&](Comm& c) -> Task<void> {
    if (c.rank() == 0) {
      (void)co_await c.send(1, 100, 8.0);
      (void)co_await c.send(1, 200, 8.0);
    } else {
      // Recv tag 200 first even though 100 arrives first.
      (void)co_await c.recv(0, 200);
      order.push_back(200);
      (void)co_await c.recv(0, 100);
      order.push_back(100);
    }
  });
  EXPECT_EQ(order, (std::vector<int>{200, 100}));
}

TEST(P2p, AnySourceReceivesFromEither) {
  World w(make_cfg(3));
  int first_src = -1;
  w.run([&](Comm& c) -> Task<void> {
    if (c.rank() == 0) {
      Message m = co_await c.recv(kAnySource, kAnyTag);
      first_src = m.src;
      (void)co_await c.recv(kAnySource, kAnyTag);
    } else {
      co_await c.send_wait(0, c.rank(), 8.0);
    }
  });
  EXPECT_TRUE(first_src == 1 || first_src == 2);
}

TEST(P2p, LargerMessagesTakeLonger) {
  auto time_for = [](double bytes) {
    World w(make_cfg(2, ExecMode::kSN));
    SimTime arrival = -1.0;
    w.run([&](Comm& c) -> Task<void> {
      if (c.rank() == 0) {
        (void)co_await c.send(1, 0, bytes);
      } else {
        (void)co_await c.recv(0, 0);
        arrival = c.now();
      }
    });
    return arrival;
  };
  const SimTime t_small = time_for(1.0 * KiB);
  const SimTime t_large = time_for(1.0 * MiB);
  const SimTime t_huge = time_for(16.0 * MiB);
  EXPECT_LT(t_small, t_large);
  EXPECT_LT(t_large, t_huge);
  // Large-message bandwidth approaches injection: 16 MiB / 2 GB/s ~ 8.4 ms.
  EXPECT_NEAR(t_huge, 16.0 * MiB / (2.0 * GB_per_s), 2.0 * ms);
}

TEST(P2p, IntraNodeBeatsInterNodeLatency) {
  // VN mode: ranks 0,1 share a node; rank 3 is core 1 of the next
  // node.  Comparing 0->1 with 0->3 keeps the receiver's VN forwarding
  // cost identical, isolating memcpy-vs-network.
  auto time_pair = [](int a, int b) {
    World w(make_cfg(4, ExecMode::kVN));
    SimTime arrival = -1.0;
    w.run([&](Comm& c) -> Task<void> {
      if (c.rank() == a) {
        (void)co_await c.send(b, 0, 8.0);
      } else if (c.rank() == b) {
        (void)co_await c.recv(a, 0);
        arrival = c.now();
      }
      co_return;
    });
    return arrival;
  };
  EXPECT_LT(time_pair(0, 1), time_pair(0, 3));
}

TEST(P2p, DeadlockIsDetectedNotHung) {
  World w(make_cfg(2));
  EXPECT_THROW(w.run([&](Comm& c) -> Task<void> {
    // Both ranks receive, nobody sends.
    (void)co_await c.recv(kAnySource, kAnyTag);
  }),
               SimError);
}

TEST(P2p, DeadlockErrorNamesBlockedRanksAndFilters) {
  World w(make_cfg(3));
  try {
    w.run([&](Comm& c) -> Task<void> {
      // Rank 2 finishes; 0 and 1 block on recvs nobody will satisfy.
      if (c.rank() == 0) (void)co_await c.recv(1, 7);
      else if (c.rank() == 1) (void)co_await c.recv(kAnySource, kAnyTag);
    });
    FAIL() << "expected SimError";
  } catch (const SimError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("deadlock"), std::string::npos) << msg;
    EXPECT_NE(msg.find("2 of 3 ranks"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rank 0: 1 posted recv [src=1 tag=7]"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("rank 1: 1 posted recv [src=any tag=any]"),
              std::string::npos)
        << msg;
    EXPECT_EQ(msg.find("rank 2"), std::string::npos) << msg;
  }
}

TEST(P2p, InvalidRankThrows) {
  World w(make_cfg(2));
  EXPECT_THROW(w.run([&](Comm& c) -> Task<void> {
    if (c.rank() == 0) (void)co_await c.send(5, 0, 8.0);
    co_return;
  }),
               UsageError);
}

TEST(P2p, NegativeUserTagThrows) {
  World w(make_cfg(2));
  EXPECT_THROW(w.run([&](Comm& c) -> Task<void> {
    if (c.rank() == 0) (void)co_await c.send(1, -5, 8.0);
    co_return;
  }),
               UsageError);
}

TEST(P2p, MessageCountersTrack) {
  World w(make_cfg(2));
  w.run([&](Comm& c) -> Task<void> {
    if (c.rank() == 0) {
      for (int i = 0; i < 5; ++i) co_await c.send_wait(1, i, 100.0);
    } else {
      for (int i = 0; i < 5; ++i) (void)co_await c.recv(0, i);
    }
  });
  EXPECT_EQ(w.messages_delivered(), 5u);
  EXPECT_DOUBLE_EQ(w.bytes_sent(), 500.0);
}

TEST(P2p, PlacementBlockPacksCores) {
  World w(make_cfg(4, ExecMode::kVN));
  EXPECT_EQ(w.node_of(0), w.node_of(1));
  EXPECT_NE(w.node_of(0), w.node_of(2));
  EXPECT_EQ(w.core_of(0), 0);
  EXPECT_EQ(w.core_of(1), 1);
}

TEST(P2p, SnModeUsesOneCorePerNode) {
  World w(make_cfg(4, ExecMode::kSN));
  for (int r = 0; r < 4; ++r) EXPECT_EQ(w.core_of(r), 0);
  EXPECT_NE(w.node_of(0), w.node_of(1));
}

TEST(P2p, DeterministicAcrossRuns) {
  auto run_once = [] {
    World w(make_cfg(8));
    return w.run([](Comm& c) -> Task<void> {
      const int right = (c.rank() + 1) % c.size();
      const int left = (c.rank() - 1 + c.size()) % c.size();
      auto fut = co_await c.send(right, 1, 4096.0);
      (void)co_await c.recv(left, 1);
      (void)co_await std::move(fut);
    });
  };
  EXPECT_DOUBLE_EQ(run_once(), run_once());
}

TEST(Trace, PeakFlowsTracked) {
  WorldConfig cfg;
  cfg.machine = machine::xt4();
  cfg.mode = machine::ExecMode::kSN;
  cfg.nranks = 8;
  World w(std::move(cfg));
  w.run([](Comm& c) -> Task<void> {
    // All ranks exchange with their opposite: 8 simultaneous flows.
    const int partner = c.size() - 1 - c.rank();
    auto f = co_await c.send(partner, 0, 1.0e6);
    (void)co_await c.recv(partner, 0);
    (void)co_await std::move(f);
  });
  EXPECT_GE(w.network().peak_flows(), 4u);
}

}  // namespace
}  // namespace xts::vmpi
