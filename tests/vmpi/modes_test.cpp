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

WorldConfig cfg_for(ExecMode mode, int nranks,
                    machine::MachineConfig m = machine::xt4()) {
  WorldConfig cfg;
  cfg.machine = std::move(m);
  cfg.mode = mode;
  cfg.nranks = nranks;
  return cfg;
}

/// One-way latency between world ranks a -> b for an 8-byte message.
SimTime pp_latency(World& w, int a, int b) {
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
}

TEST(Modes, VnNonOwnerCorePaysForwardingDelay) {
  // Inter-node messages: core-1 sender pays the VN forwarding penalty.
  World w_owner(cfg_for(ExecMode::kVN, 4));
  // Ranks 0,1 on node 0 (cores 0,1); ranks 2,3 on node 1.
  const SimTime owner_to_owner = pp_latency(w_owner, 0, 2);
  World w_nonowner(cfg_for(ExecMode::kVN, 4));
  const SimTime nonowner_to_nonowner = pp_latency(w_nonowner, 1, 3);
  EXPECT_GT(nonowner_to_nonowner, owner_to_owner + 4.0 * us);
}

TEST(Modes, SnLatencyBeatsVnNonOwner) {
  World sn(cfg_for(ExecMode::kSN, 2));
  World vn(cfg_for(ExecMode::kVN, 4));
  EXPECT_LT(pp_latency(sn, 0, 1), pp_latency(vn, 1, 3));
}

TEST(Modes, Xt4LatencyBeatsXt3) {
  World xt3(cfg_for(ExecMode::kSN, 2, machine::xt3_single_core()));
  World xt4(cfg_for(ExecMode::kSN, 2, machine::xt4()));
  EXPECT_LT(pp_latency(xt4, 0, 1), pp_latency(xt3, 0, 1));
}

/// Unidirectional bandwidth for a pair at `bytes`.
double pair_bandwidth(World& w, int a, int b, double bytes) {
  SimTime arrival = -1.0;
  w.run([&](Comm& c) -> Task<void> {
    if (c.rank() == a) {
      (void)co_await c.send(b, 0, bytes);
    } else if (c.rank() == b) {
      (void)co_await c.recv(a, 0);
      arrival = c.now();
    }
    co_return;
  });
  return bytes / arrival;
}

TEST(Modes, Xt4BandwidthRoughlyDoublesXt3) {
  // Fig 3: ping-pong bandwidth 1.15 GB/s (XT3) vs ~2 GB/s (XT4).
  World xt3(cfg_for(ExecMode::kSN, 2, machine::xt3_single_core()));
  World xt4(cfg_for(ExecMode::kSN, 2, machine::xt4()));
  const double bw3 = pair_bandwidth(xt3, 0, 1, 16.0 * MiB);
  const double bw4 = pair_bandwidth(xt4, 0, 1, 16.0 * MiB);
  EXPECT_NEAR(bw3, 1.1 * GB_per_s, 0.15 * GB_per_s);
  EXPECT_NEAR(bw4, 2.0 * GB_per_s, 0.25 * GB_per_s);
}

TEST(Modes, TwoVnPairsHalveBandwidth) {
  // Fig 12/13: two pairs per node get exactly half the per-pair
  // bandwidth of a single pair.
  const double bytes = 8.0 * MiB;
  auto run_pairs = [&](int pairs) {
    World w(cfg_for(ExecMode::kVN, 4));
    std::vector<SimTime> arrival(2, -1.0);
    w.run([&](Comm& c) -> Task<void> {
      // Ranks 0,1 on node 0 send to ranks 2,3 on node 1.
      if (c.rank() < pairs) {
        (void)co_await c.send(c.rank() + 2, 0, bytes);
      } else if (c.rank() >= 2 && c.rank() < 2 + pairs) {
        (void)co_await c.recv(c.rank() - 2, 0);
        arrival[static_cast<size_t>(c.rank() - 2)] = c.now();
      }
      co_return;
    });
    return bytes / arrival[0];
  };
  const double bw1 = run_pairs(1);
  const double bw2 = run_pairs(2);
  EXPECT_NEAR(bw2, bw1 / 2.0, bw1 * 0.1);
}

TEST(Modes, VnSharesMemoryBandwidthForStream) {
  // STREAM-like work: per-core EP throughput in VN mode is about half
  // the SP value (Fig 7).
  const machine::Work triad{2.0e6, 1.0, 240.0e6, 0.0};  // 240 MB traffic
  auto time_mode = [&](ExecMode mode, int nranks) {
    World w(cfg_for(mode, nranks));
    return w.run([&](Comm& c) -> Task<void> {
      co_await c.compute(triad);
    });
  };
  const SimTime sp = time_mode(ExecMode::kSN, 1);
  const SimTime ep = time_mode(ExecMode::kVN, 2);
  EXPECT_NEAR(ep / sp, 6.5 / 3.5, 0.15);  // core cap 6.5, shared 7.0/2
}

TEST(Modes, ComputeFlopsUnaffectedByMode) {
  const machine::Work flops_only{5.2e9, 1.0, 0.0, 0.0};
  World sn(cfg_for(ExecMode::kSN, 1));
  World vn(cfg_for(ExecMode::kVN, 2));
  const SimTime t_sn = sn.run([&](Comm& c) -> Task<void> {
    co_await c.compute(flops_only);
  });
  const SimTime t_vn = vn.run([&](Comm& c) -> Task<void> {
    co_await c.compute(flops_only);
  });
  EXPECT_NEAR(t_sn, 1.0, 1e-9);
  EXPECT_NEAR(t_vn, 1.0, 1e-9);
}

TEST(Modes, RendezvousKicksInAboveEagerThreshold) {
  // Two messages straddling the eager threshold, measured in separate
  // runs: the barely-larger one pays an extra control round-trip.
  auto arrival = [](double bytes) {
    World w(cfg_for(ExecMode::kSN, 2));
    SimTime t = -1.0;
    w.run([&](Comm& c) -> Task<void> {
      if (c.rank() == 0) {
        (void)co_await c.send(1, 0, bytes);
      } else {
        (void)co_await c.recv(0, 0);
        t = c.now();
      }
    });
    return t;
  };
  World probe(cfg_for(ExecMode::kSN, 2));
  const double thresh = probe.config().machine.mpi.eager_threshold;
  const SimTime small_t = arrival(thresh * 0.99);
  const SimTime big_t = arrival(thresh * 1.01);
  // Extra cost ~ one network round-trip plus tx+rx overheads: several
  // microseconds on top of a ~35 us transfer.
  EXPECT_GT(big_t, small_t + 3.0 * us);
}

TEST(Modes, RandomPlacementStillDelivers) {
  WorldConfig cfg = cfg_for(ExecMode::kVN, 16);
  cfg.placement = Placement::kRandom;
  World w(std::move(cfg));
  int delivered = 0;
  w.run([&](Comm& c) -> Task<void> {
    const int partner = c.size() - 1 - c.rank();
    if (c.rank() < partner) {
      co_await c.send_wait(partner, 0, 1024.0);
    } else if (c.rank() > partner) {
      (void)co_await c.recv(partner, 0);
      ++delivered;
    }
    co_return;
  });
  EXPECT_EQ(delivered, 8);
}

}  // namespace
}  // namespace xts::vmpi
