#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "machine/presets.hpp"
#include "obsv/session.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/world.hpp"

namespace xts::vmpi {
namespace {

// Golden trace: the determinism contract.  A mixed round (ring
// sendrecv, allreduce, alltoall, barrier) over 8 ranks must replay
// bit-for-bit — identical delivery order, byte counts, and exact
// double-equal timestamps — across independent Worlds.  Any change to
// (time, seq) event ordering, flow completion order, or rate
// arithmetic shows up here.  Deliveries are read from the obsv span
// trace: every message ends in a msg.rx span on the receiving rank
// (preceded by msg.copy when both ranks share a node).
TEST(Trace, GoldenTraceReplaysBitForBit) {
  struct StopSession {
    ~StopSession() { obsv::Session::stop(); }
  } stop;
  obsv::Options opt;
  opt.tracing = true;
  obsv::Session& session = obsv::Session::start(opt);

  auto run = [] {
    WorldConfig cfg;
    cfg.machine = machine::xt4();
    cfg.nranks = 8;
    World w(std::move(cfg));
    return w.run([](Comm& c) -> Task<void> {
      const int right = (c.rank() + 1) % c.size();
      {
        auto sent = co_await c.send(right, 0, 4096.0);
        (void)co_await c.recv((c.rank() + c.size() - 1) % c.size(), 0);
        (void)co_await std::move(sent);
      }
      std::vector<double> v(4, static_cast<double>(c.rank()));
      (void)co_await c.allreduce_sum(std::move(v));
      co_await c.alltoallv_bytes(std::vector<double>(
          static_cast<std::size_t>(c.size()), 512.0));
      co_await c.barrier();
      co_await c.send_wait(right, 1, 1.0e6);
      (void)co_await c.recv(kAnySource, 1);
    });
  };
  const SimTime end_a = run();
  const SimTime end_b = run();
  EXPECT_GT(end_a, 0.0);
  EXPECT_EQ(end_a, end_b);  // exact, not approximate

  // (name, lane, t1, bytes) of every delivery span, in emission order,
  // per World ordinal.
  using Delivery = std::tuple<std::uint32_t, std::int32_t, SimTime, double>;
  std::vector<Delivery> spans[2];
  const std::uint32_t rx = session.sink().intern("msg.rx");
  const std::uint32_t copy = session.sink().intern("msg.copy");
  EXPECT_EQ(session.sink().dropped(), 0u);
  session.sink().for_each([&](const obsv::TraceEvent& e) {
    if (e.cat != obsv::Cat::kMessage || (e.name != rx && e.name != copy))
      return;
    ASSERT_LT(e.world, 2u);
    spans[e.world].emplace_back(e.name, e.lane, e.t1, e.a0);
  });
  ASSERT_FALSE(spans[0].empty());
  ASSERT_EQ(spans[0].size(), spans[1].size());
  for (std::size_t i = 0; i < spans[0].size(); ++i)
    EXPECT_EQ(spans[0][i], spans[1][i]) << i;
}

}  // namespace
}  // namespace xts::vmpi
