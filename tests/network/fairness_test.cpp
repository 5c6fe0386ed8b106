#include <gtest/gtest.h>

#include <vector>

#include "core/task.hpp"
#include "network/flow_network.hpp"

namespace xts::net {
namespace {

/// Three flows on a 1D line (no wraparound effects matter here):
///   A: node0 -> node1          (first link only)
///   B: node0 -> node2          (both links)
///   C: node1 -> node2          (second link only)
/// With huge injection capacity the torus links are the constraint.
struct ThreeFlowTimes {
  SimTime a = -1, b = -1, c = -1;
};

ThreeFlowTimes run_three_flows(Fairness fairness, double link_bw) {
  Engine e;
  NetConfig cfg;
  cfg.link_bw = link_bw;
  cfg.injection_bw = 1e9;  // effectively unconstrained
  cfg.per_hop_latency = 0.0;
  cfg.fairness = fairness;
  FlowNetwork net(e, Torus3D({8, 1, 1}), cfg);
  ThreeFlowTimes t;
  auto start = [&](NodeId s, NodeId d, double bytes, SimTime& out) {
    spawn(e, [](Engine& eng, FlowNetwork& n, NodeId src, NodeId dst,
                double b, SimTime& o) -> Task<void> {
      co_await n.transfer_flow(src, dst, b);
      o = eng.now();
    }(e, net, s, d, bytes, out));
  };
  start(0, 1, 10.0, t.a);
  start(0, 2, 10.0, t.b);
  start(1, 2, 10.0, t.c);
  e.run();
  return t;
}

TEST(Fairness, MaxMinNeverSlowerThanMinShare) {
  const auto ms = run_three_flows(Fairness::kMinShare, 2.0);
  const auto mm = run_three_flows(Fairness::kMaxMin, 2.0);
  EXPECT_LE(mm.a, ms.a + 1e-9);
  EXPECT_LE(mm.b, ms.b + 1e-9);
  EXPECT_LE(mm.c, ms.c + 1e-9);
}

TEST(Fairness, MaxMinRedistributesBottleneckSlack) {
  // Asymmetric load: four flows on link (0,1) — A, D, E to node 1 plus
  // B through to node 2 — and flow C on link (1,2) alone with B.
  // Link capacity 10, injection effectively unconstrained.
  //   min-share: link (0,1) load 4 -> B = 2.5; link (1,2) load 2 ->
  //              C = 5 while B runs (2.5 of link 2 stranded).
  //   max-min:   link (0,1) is the bottleneck (2.5); C absorbs the
  //              slack on link (1,2): 10 - 2.5 = 7.5.
  SimTime c_times[2] = {-1, -1};
  for (int pass = 0; pass < 2; ++pass) {
    Engine eng;
    NetConfig cfg;
    cfg.link_bw = 10.0;
    cfg.injection_bw = 1000.0;
    cfg.fairness = pass == 0 ? Fairness::kMinShare : Fairness::kMaxMin;
    FlowNetwork net(eng, Torus3D({8, 1, 1}), cfg);
    for (int i = 0; i < 3; ++i) {  // A, D, E: 0 -> 1
      spawn(eng, [](FlowNetwork& n) -> Task<void> {
        co_await n.transfer_flow(0, 1, 10.0);
      }(net));
    }
    spawn(eng, [](FlowNetwork& n) -> Task<void> {  // B: 0 -> 2
      co_await n.transfer_flow(0, 2, 10.0);
    }(net));
    spawn(eng, [](Engine& en, FlowNetwork& n, SimTime& out) -> Task<void> {
      co_await n.transfer_flow(1, 2, 40.0);  // C: 1 -> 2
      out = en.now();
    }(eng, net, c_times[pass]));
    eng.run();
  }
  // C finishes measurably earlier under exact max-min.
  EXPECT_LT(c_times[1], c_times[0] - 0.5);
}

TEST(Fairness, BothPoliciesConserveBytes) {
  for (const auto f : {Fairness::kMinShare, Fairness::kMaxMin}) {
    Engine e;
    NetConfig cfg;
    cfg.link_bw = 2.0;
    cfg.injection_bw = 1.5;
    cfg.fairness = f;
    FlowNetwork net(e, Torus3D({4, 4, 1}), cfg);
    double total = 0.0;
    for (int i = 0; i < 60; ++i) {
      const auto s = static_cast<NodeId>(i % 16);
      auto d = static_cast<NodeId>((i * 7 + 3) % 16);
      if (d == s) d = (d + 1) % 16;
      const double bytes = 2.0 + i % 5;
      total += bytes;
      spawn(e, [](FlowNetwork& n, NodeId src, NodeId dst, double b)
                   -> Task<void> {
        co_await n.transfer_flow(src, dst, b);
      }(net, s, d, bytes));
    }
    e.run();
    EXPECT_NEAR(net.total_delivered(), total, 1e-6);
    EXPECT_EQ(net.active_flows(), 0u);
  }
}

TEST(Fairness, MaxMinNeverOversubscribesTheSharedLink) {
  // N flows through one ejection link: both policies serialize at the
  // link capacity (aggregate rate == capacity).
  for (const auto f : {Fairness::kMinShare, Fairness::kMaxMin}) {
    Engine e;
    NetConfig cfg;
    cfg.link_bw = 100.0;
    cfg.injection_bw = 2.0;
    cfg.fairness = f;
    FlowNetwork net(e, Torus3D({16, 1, 1}), cfg);
    std::vector<SimTime> done(6, -1.0);
    for (int i = 0; i < 6; ++i) {
      spawn(e, [](Engine& eng, FlowNetwork& n, NodeId src, SimTime& out)
                   -> Task<void> {
        co_await n.transfer_flow(src, 0, 4.0);
        out = eng.now();
      }(e, net, static_cast<NodeId>(2 + i), done[static_cast<size_t>(i)]));
    }
    e.run();
    for (const auto t : done) EXPECT_NEAR(t, 6 * 4.0 / 2.0, 1e-9);
  }
}

}  // namespace
}  // namespace xts::net
