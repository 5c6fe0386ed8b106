#include "network/flow_network.hpp"

#include <gtest/gtest.h>

#include <array>
#include <numeric>
#include <ostream>
#include <vector>

#include "core/future.hpp"
#include "core/rng.hpp"
#include "core/task.hpp"
#include "reference_model.hpp"

namespace xts::net {

// Names the policy in parameterized test names (found by ADL).
void PrintTo(Fairness f, std::ostream* os) {
  *os << (f == Fairness::kMinShare ? "kMinShare" : "kMaxMin");
}

namespace {

NetConfig cfg(double link = 4.0, double inj = 2.0) {
  NetConfig c;
  c.link_bw = link;           // units: bytes/s (test-scale numbers)
  c.injection_bw = inj;
  c.per_hop_latency = 0.1;
  return c;
}

/// Start every flow of \p flows on \p net at its start time; done[i]
/// receives flow i's completion time once the engine runs.
void spawn_flows(Engine& e, FlowNetwork& net,
                 const std::vector<reference::Flow>& flows,
                 std::vector<SimTime>& done) {
  done.assign(flows.size(), -1.0);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    spawn(e, [](Engine& eng, FlowNetwork& n, reference::Flow f,
                SimTime& out) -> Task<void> {
      co_await Delay(eng, f.start);
      co_await n.transfer_flow(f.src, f.dst, f.bytes);
      out = eng.now();
    }(e, net, flows[i], done[i]));
  }
}

/// 40 flows over 16 nodes with repeated pairs, in five waves 0.5 s
/// apart (a 4x4x1 torus).
std::vector<reference::Flow> staggered_pairs() {
  std::vector<reference::Flow> flows;
  for (int i = 0; i < 40; ++i) {
    const auto s = static_cast<NodeId>(i % 16);
    auto d = static_cast<NodeId>((i * 5 + 1) % 16);
    if (s == d) d = (d + 1) % 16;
    flows.push_back({0.5 * (i % 5), s, d, 1.0 + i % 13});
  }
  return flows;
}

/// 150 random pairs over 64 nodes in eleven waves 0.3 s apart (a 4x4x4
/// torus): staggered churn.
std::vector<reference::Flow> random_churn() {
  std::vector<reference::Flow> flows;
  Rng rng_src(7), rng_dst(11);
  for (int i = 0; i < 150; ++i) {
    const auto s = static_cast<NodeId>(rng_src.below(64));
    auto d = static_cast<NodeId>(rng_dst.below(64));
    if (d == s) d = (d + 1) % 64;
    flows.push_back({0.3 * (i % 11), s, d, 1.0 + i % 23});
  }
  return flows;
}

SimTime run_one_transfer(Engine& e, FlowNetwork& net, NodeId src, NodeId dst,
                         double bytes) {
  SimTime done = -1.0;
  spawn(e, [](Engine& eng, FlowNetwork& n, NodeId s, NodeId d, double b,
              SimTime& out) -> Task<void> {
    co_await n.transfer_flow(s, d, b);
    out = eng.now();
  }(e, net, src, dst, bytes, done));
  e.run();
  return done;
}

TEST(FlowNetwork, SingleFlowLimitedByInjection) {
  Engine e;
  FlowNetwork net(e, Torus3D({4, 1, 1}), cfg(4.0, 2.0));
  // 8 bytes at min(inj 2, link 4, ej 2) = 2 B/s -> 4 s.
  EXPECT_NEAR(run_one_transfer(e, net, 0, 1, 8.0), 4.0, 1e-9);
  EXPECT_NEAR(net.total_delivered(), 8.0, 1e-6);
}

TEST(FlowNetwork, SingleFlowLimitedByLink) {
  Engine e;
  FlowNetwork net(e, Torus3D({4, 1, 1}), cfg(1.0, 2.0));
  EXPECT_NEAR(run_one_transfer(e, net, 0, 1, 8.0), 8.0, 1e-9);
}

TEST(FlowNetwork, ZeroByteTransferCompletesImmediately) {
  Engine e;
  FlowNetwork net(e, Torus3D({2, 1, 1}), cfg());
  EXPECT_NEAR(run_one_transfer(e, net, 0, 1, 0.0), 0.0, 1e-12);
}

TEST(FlowNetwork, NegativeSizeThrows) {
  Engine e;
  FlowNetwork net(e, Torus3D({2, 1, 1}), cfg());
  EXPECT_THROW((void)net.transfer_flow(0, 1, -1.0), UsageError);
}

TEST(FlowNetwork, TwoFlowsShareInjectionLink) {
  Engine e;
  FlowNetwork net(e, Torus3D({4, 1, 1}), cfg(8.0, 2.0));
  std::vector<SimTime> done(2, -1.0);
  // Same source, different destinations: share the injection link.
  const NodeId dst[2] = {1, 3};
  for (int i = 0; i < 2; ++i) {
    spawn(e, [](Engine& eng, FlowNetwork& n, NodeId d, SimTime& out)
                 -> Task<void> {
      co_await n.transfer_flow(0, d, 4.0);
      out = eng.now();
    }(e, net, dst[i], done[static_cast<size_t>(i)]));
  }
  e.run();
  // Each gets 1 B/s on the 2 B/s injection link -> 4 s.
  EXPECT_NEAR(done[0], 4.0, 1e-9);
  EXPECT_NEAR(done[1], 4.0, 1e-9);
}

TEST(FlowNetwork, DisjointFlowsDoNotInterfere) {
  Engine e;
  FlowNetwork net(e, Torus3D({4, 4, 1}), cfg(4.0, 2.0));
  Torus3D t({4, 4, 1});
  std::vector<SimTime> done(2, -1.0);
  const NodeId srcs[2] = {t.id_of({0, 0, 0}), t.id_of({2, 2, 0})};
  const NodeId dsts[2] = {t.id_of({0, 1, 0}), t.id_of({2, 3, 0})};
  for (int i = 0; i < 2; ++i) {
    spawn(e, [](Engine& eng, FlowNetwork& n, NodeId s, NodeId d,
                SimTime& out) -> Task<void> {
      co_await n.transfer_flow(s, d, 8.0);
      out = eng.now();
    }(e, net, srcs[i], dsts[i], done[static_cast<size_t>(i)]));
  }
  e.run();
  EXPECT_NEAR(done[0], 4.0, 1e-9);  // full injection rate each
  EXPECT_NEAR(done[1], 4.0, 1e-9);
}

TEST(FlowNetwork, LateFlowSlowsSharedLink) {
  Engine e;
  // Ring of 8; flows 0->2 and 1->2 share link 1->2 and ejection at 2.
  FlowNetwork net(e, Torus3D({8, 1, 1}), cfg(2.0, 100.0));
  SimTime first = -1.0, second = -1.0;
  spawn(e, [](Engine& eng, FlowNetwork& n, SimTime& out) -> Task<void> {
    co_await n.transfer_flow(0, 2, 8.0);
    out = eng.now();
  }(e, net, first));
  spawn(e, [](Engine& eng, FlowNetwork& n, SimTime& out) -> Task<void> {
    co_await Delay(eng, 2.0);
    co_await n.transfer_flow(1, 2, 2.0);
    out = eng.now();
  }(e, net, second));
  e.run();
  // Flow A: 4 bytes by t=2 (rate 2), then shares: rate 1 each.
  // Flow B: 2 bytes at rate 1 -> done t=4. A: 2 more bytes in [2,4],
  // then 2 bytes alone at rate 2 -> done t=5.
  EXPECT_NEAR(second, 4.0, 1e-9);
  EXPECT_NEAR(first, 5.0, 1e-9);
}

TEST(FlowNetwork, ConservationAcrossManyRandomFlows) {
  Engine e;
  Torus3D topo({4, 4, 4});
  FlowNetwork net(e, topo, cfg(3.0, 2.0));
  double total = 0.0;
  int finished = 0;
  const int kFlows = 200;
  Rng rng_src(1), rng_dst(2);
  for (int i = 0; i < kFlows; ++i) {
    const auto src = static_cast<NodeId>(rng_src.below(64));
    auto dst = static_cast<NodeId>(rng_dst.below(64));
    if (dst == src) dst = (dst + 1) % 64;
    const double bytes = 1.0 + static_cast<double>(i % 17);
    total += bytes;
    spawn(e, [](Engine& eng, FlowNetwork& n, NodeId s, NodeId d, double b,
                int delay, int& count) -> Task<void> {
      co_await Delay(eng, 0.25 * delay);
      co_await n.transfer_flow(s, d, b);
      ++count;
    }(e, net, src, dst, bytes, i % 7, finished));
  }
  e.run();
  EXPECT_EQ(finished, kFlows);
  EXPECT_NEAR(net.total_delivered(), total, 1e-6);
  EXPECT_EQ(net.active_flows(), 0u);
  for (LinkId l = 0; l < topo.total_link_count(); ++l)
    EXPECT_EQ(net.link_load(l), 0);
}

TEST(FlowNetwork, RouteLatencyScalesWithHops) {
  Engine e;
  FlowNetwork net(e, Torus3D({8, 1, 1}), cfg());
  EXPECT_NEAR(net.route_latency(0, 1), 0.1, 1e-12);
  EXPECT_NEAR(net.route_latency(0, 4), 0.4, 1e-12);
}

TEST(FlowNetwork, DeterministicReplay) {
  auto run = [] {
    Engine e;
    FlowNetwork net(e, Torus3D({4, 4, 1}), cfg(2.5, 1.5));
    std::vector<SimTime> done;
    for (int i = 0; i < 20; ++i) {
      NodeId s = static_cast<NodeId>(i % 16);
      NodeId d = static_cast<NodeId>((i * 5 + 1) % 16);
      if (s == d) d = (d + 1) % 16;
      spawn(e, [](Engine& eng, FlowNetwork& n, NodeId src, NodeId dst,
                  double b, std::vector<SimTime>& log) -> Task<void> {
        co_await n.transfer_flow(src, dst, b);
        log.push_back(eng.now());
      }(e, net, s, d, 1.0 + i, done));
    }
    e.run();
    return done;
  };
  EXPECT_EQ(run(), run());
}

// Property: N identical flows through one bottleneck finish in N x solo
// time (fair sharing), for a sweep of N.
class FlowFairness : public ::testing::TestWithParam<int> {};

TEST_P(FlowFairness, BottleneckSharedEqually) {
  const int n = GetParam();
  Engine e;
  // All flows eject at node 1: ejection link is the bottleneck.
  FlowNetwork net(e, Torus3D({16, 1, 1}), cfg(100.0, 2.0));
  std::vector<SimTime> done(static_cast<size_t>(n), -1.0);
  for (int i = 0; i < n; ++i) {
    const auto src = static_cast<NodeId>(2 + i);
    spawn(e, [](Engine& eng, FlowNetwork& net2, NodeId s, SimTime& out)
                 -> Task<void> {
      co_await net2.transfer_flow(s, 1, 4.0);
      out = eng.now();
    }(e, net, src, done[static_cast<size_t>(i)]));
  }
  e.run();
  const double expected = static_cast<double>(n) * 4.0 / 2.0;
  for (const auto t : done) EXPECT_NEAR(t, expected, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Counts, FlowFairness,
                         ::testing::Values(1, 2, 3, 5, 9, 14));

// 32 disjoint same-instant transfers must coalesce into a handful of
// rate-allocation passes (one absorbing all arrivals, one per
// completion wave) — not one pass per transfer.
TEST(FlowNetwork, SameInstantArrivalsCoalesceIntoOnePass) {
  Engine e;
  FlowNetwork net(e, Torus3D({64, 1, 1}), cfg(100.0, 2.0));
  int finished = 0;
  for (int i = 0; i < 32; ++i) {
    const auto src = static_cast<NodeId>(2 * i);
    const auto dst = static_cast<NodeId>(2 * i + 1);
    spawn(e, [](FlowNetwork& n, NodeId s, NodeId d, int& count)
                 -> Task<void> {
      co_await n.transfer_flow(s, d, 8.0);
      ++count;
    }(net, src, dst, finished));
  }
  e.run();
  EXPECT_EQ(finished, 32);
  // Disjoint equal flows: one arrival pass, one completion wave.
  EXPECT_GE(net.recompute_passes(), 1u);
  EXPECT_LE(net.recompute_passes(), 4u);
}

// A min-share rate depends only on the loads of the flow's own links,
// so a flow that shares no link with the others re-rates itself alone,
// however many links its route has.
TEST(FlowNetwork, AddingADisjointFlowReratesOnlyThatFlow) {
  Engine e;
  FlowNetwork net(e, Torus3D({16, 1, 1}), cfg());
  auto xfer = [](Engine& eng, FlowNetwork& n, SimTime at, NodeId s,
                 NodeId d) -> Task<void> {
    co_await Delay(eng, at);
    co_await n.transfer_flow(s, d, 100.0);  // outlives the probes
  };
  for (int i = 0; i < 3; ++i) {
    spawn(e, xfer(e, net, 0.0, static_cast<NodeId>(2 * i),
                  static_cast<NodeId>(2 * i + 1)));
  }
  std::uint64_t before = 0, after = 0;
  auto probe = [](Engine& eng, FlowNetwork& n, SimTime at,
                  std::uint64_t& out) -> Task<void> {
    co_await Delay(eng, at);
    out = n.rate_updates();
  };
  spawn(e, probe(e, net, 1.0, before));
  // 8 -> 11: injection, three torus hops and ejection, all unused.
  spawn(e, xfer(e, net, 1.0, 8, 11));
  spawn(e, probe(e, net, 2.0, after));
  e.run();
  EXPECT_EQ(before, 3u);
  EXPECT_EQ(after - before, 1u);
}

// Four identical flows on disjoint routes complete at the same
// simulated instant and must resume in flow-slot order — submission
// order here, since slots are allocated sequentially from an empty
// network.
TEST(FlowNetwork, SameInstantCompletionsFireInFlowSlotOrder) {
  Engine e;
  FlowNetwork net(e, Torus3D({8, 1, 1}), cfg());
  std::vector<int> order;
  std::vector<SimTime> done(4, -1.0);
  for (int i = 0; i < 4; ++i) {
    spawn(e, [](Engine& eng, FlowNetwork& n, int idx, std::vector<int>& ord,
                std::vector<SimTime>& at) -> Task<void> {
      co_await n.transfer_flow(static_cast<NodeId>(2 * idx),
                               static_cast<NodeId>(2 * idx + 1), 16.0);
      ord.push_back(idx);
      at[static_cast<std::size_t>(idx)] = eng.now();
    }(e, net, i, order, done));
  }
  e.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  for (std::size_t i = 1; i < done.size(); ++i) EXPECT_EQ(done[i], done[0]);
}

// Three-way contention where the two fairness policies provably
// diverge.  Flows B, C, D share ejection(2) (the bottleneck, 1 B/s
// each); A shares injection(0) with B.  Min-share caps A at
// inj/2 = 1.5 B/s even though B cannot use its half; max-min hands the
// slack to A (2 B/s), finishing it a full second earlier.
TEST(FlowNetwork, FairnessPoliciesDivergeWhenBottleneckStrandsCapacity) {
  struct Result {
    SimTime a, b, c, d;
  };
  auto run = [](Fairness fairness) {
    Engine e;
    NetConfig c = cfg(100.0, 3.0);  // links never bind; NICs do
    c.fairness = fairness;
    FlowNetwork net(e, Torus3D({4, 1, 1}), c);
    Result r{};
    auto xfer = [](Engine& eng, FlowNetwork& n, NodeId s, NodeId d,
                   double bytes, SimTime& out) -> Task<void> {
      co_await n.transfer_flow(s, d, bytes);
      out = eng.now();
    };
    spawn(e, xfer(e, net, 0, 1, 6.0, r.a));
    spawn(e, xfer(e, net, 0, 2, 4.0, r.b));
    spawn(e, xfer(e, net, 1, 2, 4.0, r.c));
    spawn(e, xfer(e, net, 3, 2, 4.0, r.d));
    e.run();
    return r;
  };

  const Result ms = run(Fairness::kMinShare);
  EXPECT_NEAR(ms.a, 4.0, 1e-9);  // held to 1.5 B/s by B's unused share
  EXPECT_NEAR(ms.b, 4.0, 1e-9);
  EXPECT_NEAR(ms.c, 4.0, 1e-9);
  EXPECT_NEAR(ms.d, 4.0, 1e-9);

  const Result mm = run(Fairness::kMaxMin);
  EXPECT_NEAR(mm.a, 3.0, 1e-9);  // picks up the slack: 2 B/s
  EXPECT_NEAR(mm.b, 4.0, 1e-9);
  EXPECT_NEAR(mm.c, 4.0, 1e-9);
  EXPECT_NEAR(mm.d, 4.0, 1e-9);
}

// The reference model reproduces the same hand-derived times.
TEST(ReferenceModel, ReproducesHandDerivedFairnessTimes) {
  const std::vector<reference::Flow> flows = {
      {0.0, 0, 1, 6.0}, {0.0, 0, 2, 4.0}, {0.0, 1, 2, 4.0}, {0.0, 3, 2, 4.0}};
  const Torus3D topo({4, 1, 1});
  EXPECT_EQ(reference::completion_times(topo, 100.0, 3.0,
                                        Fairness::kMinShare, flows),
            (std::vector<SimTime>{4.0, 4.0, 4.0, 4.0}));
  const auto mm =
      reference::completion_times(topo, 100.0, 3.0, Fairness::kMaxMin, flows);
  ASSERT_EQ(mm.size(), 4u);
  EXPECT_NEAR(mm[0], 3.0, 1e-9);
  for (std::size_t i = 1; i < mm.size(); ++i) EXPECT_NEAR(mm[i], 4.0, 1e-9);
}

// Byte conservation and full teardown under staggered churn, under
// both fairness policies.
class FlowChurnModes : public ::testing::TestWithParam<Fairness> {};

TEST_P(FlowChurnModes, ConservesBytesAndTearsDownCleanly) {
  Engine e;
  const Torus3D topo({4, 4, 4});
  NetConfig c = cfg(3.0, 2.0);
  c.fairness = GetParam();
  FlowNetwork net(e, topo, c);
  const std::vector<reference::Flow> flows = random_churn();
  std::vector<SimTime> done;
  spawn_flows(e, net, flows, done);
  e.run();
  double total = 0.0;
  for (const reference::Flow& f : flows) total += f.bytes;
  for (const SimTime t : done) EXPECT_GE(t, 0.0);
  EXPECT_NEAR(net.total_delivered(), total, 1e-6);
  EXPECT_EQ(net.active_flows(), 0u);
  for (LinkId l = 0; l < topo.total_link_count(); ++l)
    EXPECT_EQ(net.link_load(l), 0);
}

INSTANTIATE_TEST_SUITE_P(Modes, FlowChurnModes,
                         ::testing::Values(Fairness::kMinShare,
                                           Fairness::kMaxMin));

// FlowNetwork must reproduce the reference fluid model's completion
// times on both workloads under both policies.  The policies' totals
// must differ there too, so a policy mix-up cannot pass unnoticed.
TEST(FlowNetwork, MatchesReferenceModelCompletionTimes) {
  struct Workload {
    Torus3D topo;
    double link_bw;
    double injection_bw;
    std::vector<reference::Flow> flows;
  };
  const Workload workloads[] = {
      {Torus3D({4, 4, 1}), 2.5, 1.5, staggered_pairs()},
      {Torus3D({4, 4, 4}), 3.0, 2.0, random_churn()}};
  for (const Workload& w : workloads) {
    double total[2] = {0.0, 0.0};
    for (const Fairness f : {Fairness::kMinShare, Fairness::kMaxMin}) {
      const std::vector<SimTime> want = reference::completion_times(
          w.topo, w.link_bw, w.injection_bw, f, w.flows);
      Engine e;
      NetConfig c = cfg(w.link_bw, w.injection_bw);
      c.fairness = f;
      FlowNetwork net(e, w.topo, c);
      std::vector<SimTime> got;
      spawn_flows(e, net, w.flows, got);
      e.run();
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_NEAR(got[i], want[i], 1e-7) << "flow " << i;
      total[f == Fairness::kMaxMin] =
          std::accumulate(want.begin(), want.end(), 0.0);
    }
    EXPECT_GT(total[0], total[1] + 1.0);  // max-min drains sooner
  }
}

TEST(FlowNetwork, RouteCacheServesRepeatedPairs) {
  Engine e;
  FlowNetwork net(e, Torus3D({4, 4, 1}), cfg());
  for (int i = 0; i < 10; ++i) run_one_transfer(e, net, 0, 5, 4.0);
  EXPECT_EQ(net.route_cache_misses(), 1u);
  EXPECT_EQ(net.route_cache_hits(), 9u);
}

TEST(FlowNetwork, LinkStatsConserveBytes) {
  Engine e;
  NetConfig c = cfg();
  c.link_stats = LinkStatsMode::kTotals;
  const Torus3D topo({4, 4, 1});
  FlowNetwork net(e, topo, c);
  run_one_transfer(e, net, 0, 5, 64.0);
  run_one_transfer(e, net, 3, 12, 1024.0);
  run_one_transfer(e, net, 15, 2, 16.0);
  ASSERT_TRUE(net.stats_enabled());
  // Every route crosses exactly one ejection link, so ejection-class
  // bytes must equal the network's delivered total; same for injection.
  double inj = 0.0, ej = 0.0;
  for (LinkId l = 0; l < topo.total_link_count(); ++l) {
    const auto st = net.link_stats(l);
    if (net.link_class(l) == 6) inj += st.bytes;
    if (net.link_class(l) == 7) ej += st.bytes;
  }
  EXPECT_NEAR(ej, net.total_delivered(), 1e-6);
  EXPECT_NEAR(inj, net.total_delivered(), 1e-6);
}

TEST(FlowNetwork, LinkStatsBusyAndContention) {
  Engine e;
  NetConfig c = cfg(8.0, 2.0);
  c.link_stats = LinkStatsMode::kTotals;
  FlowNetwork net(e, Torus3D({4, 1, 1}), c);
  std::vector<SimTime> done(2, -1.0);
  const NodeId dst[2] = {1, 3};
  for (int i = 0; i < 2; ++i) {
    spawn(e, [](Engine& eng, FlowNetwork& n, NodeId d, SimTime& out)
                 -> Task<void> {
      co_await n.transfer_flow(0, d, 4.0);
      out = eng.now();
    }(e, net, dst[i], done[static_cast<std::size_t>(i)]));
  }
  e.run();
  // Both flows share node 0's injection link (link 24 on a 4x1x1
  // torus) for the full 4 s: busy == contended == 4 s, peak load 2.
  const LinkId inj0 = 24;
  EXPECT_EQ(net.link_class(inj0), 6);
  const auto st = net.link_stats(inj0);
  EXPECT_NEAR(st.bytes, 8.0, 1e-9);
  EXPECT_NEAR(st.busy_time, 4.0, 1e-9);
  EXPECT_NEAR(st.contended_time, 4.0, 1e-9);
  EXPECT_EQ(st.peak_load, 2);
}

/// Start 60 random flows, 1..17 bytes each, in seven waves 0.25 s
/// apart.
void spawn_random_waves(Engine& e, FlowNetwork& net) {
  const int nodes = net.topology().node_count();
  Rng rng(11);
  for (int i = 0; i < 60; ++i) {
    const auto src = static_cast<NodeId>(rng.below(nodes));
    auto dst = static_cast<NodeId>(rng.below(nodes));
    if (dst == src) dst = (dst + 1) % nodes;
    spawn(e, [](Engine& eng, FlowNetwork& n, NodeId s, NodeId d, double b,
                int wave) -> Task<void> {
      co_await Delay(eng, 0.25 * wave);
      co_await n.transfer_flow(s, d, b);
    }(e, net, src, dst, 1.0 + static_cast<double>(i % 17), i % 7));
  }
}

/// Summed link_load() over the links of each class.
std::array<int, FlowNetwork::kLinkClasses> class_loads(
    const FlowNetwork& net) {
  std::array<int, FlowNetwork::kLinkClasses> load{};
  for (LinkId l = 0; l < net.topology().total_link_count(); ++l)
    load[static_cast<std::size_t>(net.link_class(l))] += net.link_load(l);
  return load;
}

/// Each class's most recent sample, or -1 for a class with none.
std::array<int, FlowNetwork::kLinkClasses> last_samples(
    const FlowNetwork& net) {
  std::array<int, FlowNetwork::kLinkClasses> last;
  last.fill(-1);
  for (const auto& s : net.class_samples())
    last[static_cast<std::size_t>(s.cls)] = s.load;
  return last;
}

TEST(FlowNetwork, ClassSeriesTracksSummedLinkLoads) {
  Engine e;
  NetConfig c = cfg(3.0, 2.0);
  c.link_stats = LinkStatsMode::kTotalsAndSeries;
  FlowNetwork net(e, Torus3D({4, 4, 4}), c);
  spawn_random_waves(e, net);
  // Probe between events (waves start on multiples of 0.25 s): each
  // class's latest sample is that class's current summed load.
  int busy_probes = 0;
  const auto probe = [&] {
    const auto load = class_loads(net);
    const auto last = last_samples(net);
    for (std::size_t cls = 0; cls < load.size(); ++cls) {
      if (last[cls] < 0) continue;  // class not used yet
      EXPECT_EQ(last[cls], load[cls]) << "class " << cls;
    }
    if (net.active_flows() > 0) ++busy_probes;
  };
  for (int k = 0; k < 40; ++k) e.schedule_at(0.1 + 0.2 * k, probe);
  e.run();
  EXPECT_GT(busy_probes, 3);
  // Drained: every class was used, and its last sample is zero.
  for (const int v : last_samples(net)) EXPECT_EQ(v, 0);
  // Per class, samples come in time order.
  std::array<SimTime, FlowNetwork::kLinkClasses> prev;
  prev.fill(-1.0);
  for (const auto& s : net.class_samples()) {
    const auto cls = static_cast<std::size_t>(s.cls);
    EXPECT_GE(s.t, prev[cls]) << "class " << cls;
    prev[cls] = s.t;
  }
}

TEST(FlowNetwork, LinkTotalsAloneRecordNoSeries) {
  // The same flows under kTotals and kTotalsAndSeries: identical
  // per-link totals, and kTotals never samples the class series.
  std::vector<FlowNetwork::LinkStats> totals[2];
  for (const LinkStatsMode mode :
       {LinkStatsMode::kTotals, LinkStatsMode::kTotalsAndSeries}) {
    Engine e;
    NetConfig c = cfg(3.0, 2.0);
    c.link_stats = mode;
    FlowNetwork net(e, Torus3D({4, 4, 4}), c);
    spawn_random_waves(e, net);
    e.run();
    const bool series = mode == LinkStatsMode::kTotalsAndSeries;
    EXPECT_EQ(net.class_samples().empty(), !series);
    for (LinkId l = 0; l < net.topology().total_link_count(); ++l)
      totals[series ? 1 : 0].push_back(net.link_stats(l));
  }
  ASSERT_EQ(totals[0].size(), totals[1].size());
  for (std::size_t l = 0; l < totals[0].size(); ++l) {
    EXPECT_EQ(totals[0][l].bytes, totals[1][l].bytes) << "link " << l;
    EXPECT_EQ(totals[0][l].busy_time, totals[1][l].busy_time);
    EXPECT_EQ(totals[0][l].contended_time, totals[1][l].contended_time);
    EXPECT_EQ(totals[0][l].peak_load, totals[1][l].peak_load);
  }
}

TEST(FlowNetwork, LinkStatsOffByDefault) {
  Engine e;
  FlowNetwork net(e, Torus3D({2, 1, 1}), cfg());
  EXPECT_FALSE(net.stats_enabled());
  EXPECT_THROW((void)net.link_stats(0), UsageError);
  EXPECT_TRUE(net.class_samples().empty());
}

}  // namespace
}  // namespace xts::net
