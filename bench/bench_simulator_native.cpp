/// \file bench_simulator_native.cpp
/// google-benchmark of the simulator substrate itself: event-loop
/// throughput, flow-network churn, and end-to-end vmpi collective rate.
///
/// These are the benches tracked by scripts/bench_regress.py into
/// results/BENCH_simcore.json; keep names and argument sets stable so
/// the perf trajectory stays comparable across PRs.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/engine.hpp"
#include "core/task.hpp"
#include "machine/presets.hpp"
#include "network/flow_network.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/world.hpp"

namespace {

using namespace xts;

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

/// Prefill-then-drain: worst-case heap depth, no same-instant traffic.
void BM_EngineEvents(benchmark::State& state) {
  for (auto _ : state) {
    Engine e;
    const int n = static_cast<int>(state.range(0));
    int fired = 0;
    for (int i = 0; i < n; ++i)
      e.schedule_at(static_cast<double>(i), [&fired] { ++fired; });
    e.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineEvents)->Arg(10000)->Arg(100000);

/// Hold-model throughput: a fixed population of timers, each firing
/// reschedules itself at a pseudo-random future instant and posts three
/// zero-delay callbacks — the schedule_after(0.0) pattern used by
/// coroutine resumption, promise delivery, and FlowNetwork::mark_dirty,
/// which dominates event mix in real vmpi runs.
struct HoldCtx {
  Engine* e = nullptr;
  int remaining = 0;
  std::int64_t fired = 0;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
};

void hold_tick(HoldCtx* c) {
  ++c->fired;
  for (int i = 0; i < 3; ++i)
    c->e->schedule_after(0.0, [c] { ++c->fired; });
  if (--c->remaining > 0) {
    const double dt =
        1e-9 * static_cast<double>(1 + (xorshift(c->rng) & 1023));
    c->e->schedule_after(dt, [c] { hold_tick(c); });
  }
}

void BM_EngineThroughput(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  constexpr int kTimers = 64;
  for (auto _ : state) {
    Engine e;
    HoldCtx ctx;
    ctx.e = &e;
    ctx.remaining = n;
    for (int t = 0; t < kTimers; ++t)
      e.schedule_after(1e-9 * static_cast<double>(t + 1),
                       [c = &ctx] { hold_tick(c); });
    e.run();
    benchmark::DoNotOptimize(ctx.fired);
  }
  // One timer event plus three zero-delay events per tick.
  state.SetItemsProcessed(state.iterations() * state.range(0) * 4);
}
BENCHMARK(BM_EngineThroughput)->Arg(100000)->Arg(400000);

/// Lock-step burst of same-instant transfers (one collective round):
/// exercises the same-instant coalescing path.
void BM_FlowNetworkTransfers(benchmark::State& state) {
  for (auto _ : state) {
    Engine e;
    net::FlowNetwork net(e, net::Torus3D({8, 8, 8}),
                         {3.0e9, 2.0e9, 0.0, 50e-9});
    const int n = static_cast<int>(state.range(0));
    for (int i = 0; i < n; ++i) {
      const auto src = static_cast<net::NodeId>(i % 512);
      const auto dst = static_cast<net::NodeId>((i * 37 + 11) % 512);
      if (src == dst) continue;
      spawn(e, [](net::FlowNetwork& fn, net::NodeId s, net::NodeId d)
                   -> Task<void> {
        co_await fn.transfer_flow(s, d, 65536.0);
      }(net, src, dst));
    }
    e.run();
    benchmark::DoNotOptimize(net.total_delivered());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FlowNetworkTransfers)->Arg(1000)->Arg(5000);

/// Flow churn at scale: ranks/4 concurrent workers issue staggered
/// transfers between pseudo-random nodes of a torus sized for `ranks`
/// nodes, so every arrival and departure lands at a distinct instant
/// and forces a rate-allocation update while ~ranks/4 flows are live.
/// This is the recompute-bound regime of the app proxies.
void BM_FlowChurn(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const net::TorusDims dims = net::Torus3D::choose_dims(ranks);
  const int workers = std::max(64, ranks / 4);
  constexpr int kRepsPerWorker = 4;
  for (auto _ : state) {
    Engine e;
    net::FlowNetwork net(e, net::Torus3D(dims),
                         {3.0e9, 2.0e9, 0.0, 50e-9});
    for (int w = 0; w < workers; ++w) {
      spawn(e, [](Engine& eng, net::FlowNetwork& fn, int worker,
                  int nnodes) -> Task<void> {
        std::uint64_t s = 0x9e3779b97f4a7c15ull +
                          static_cast<std::uint64_t>(worker) *
                              0xbf58476d1ce4e5b9ull;
        for (int m = 0; m < kRepsPerWorker; ++m) {
          xorshift(s);
          co_await Delay(eng, 1e-9 * static_cast<double>(1 + (s & 4095)));
          const auto nn = static_cast<std::uint64_t>(nnodes);
          const auto src = static_cast<net::NodeId>((s >> 12) % nn);
          auto dst = static_cast<net::NodeId>((s >> 32) % nn);
          if (dst == src)
            dst = static_cast<net::NodeId>((static_cast<std::uint64_t>(dst) + 1) % nn);
          co_await fn.transfer_flow(src, dst,
                                    1024.0 + static_cast<double>(s & 0xffff));
        }
      }(e, net, w, dims.count()));
    }
    e.run();
    benchmark::DoNotOptimize(net.total_delivered());
  }
  state.SetItemsProcessed(state.iterations() * workers * kRepsPerWorker);
  state.counters["ranks"] = ranks;
}
BENCHMARK(BM_FlowChurn)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(8192)
    ->Unit(benchmark::kMillisecond);

/// End-to-end allreduce scaling (recursive doubling, log P rounds).
void BM_VmpiAllreduce(benchmark::State& state) {
  for (auto _ : state) {
    vmpi::WorldConfig cfg;
    cfg.machine = machine::xt4();
    cfg.nranks = static_cast<int>(state.range(0));
    vmpi::World w(std::move(cfg));
    w.run([](vmpi::Comm& c) -> Task<void> {
      std::vector<double> v(8, 1.0);
      for (int i = 0; i < 4; ++i) v = co_await c.allreduce_sum(std::move(v));
    });
    benchmark::DoNotOptimize(w.messages_delivered());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 4);
}
BENCHMARK(BM_VmpiAllreduce)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(2048)
    ->Unit(benchmark::kMillisecond);

/// End-to-end alltoall scaling (pairwise exchange, P-1 rounds of P
/// concurrent messages — the PTRANS/FFT traffic pattern).
void BM_VmpiAlltoall(benchmark::State& state) {
  for (auto _ : state) {
    vmpi::WorldConfig cfg;
    cfg.machine = machine::xt4();
    cfg.nranks = static_cast<int>(state.range(0));
    vmpi::World w(std::move(cfg));
    w.run([](vmpi::Comm& c) -> Task<void> {
      std::vector<double> bytes_to(static_cast<std::size_t>(c.size()),
                                   2048.0);
      bytes_to[static_cast<std::size_t>(c.rank())] = 0.0;
      for (int i = 0; i < 2; ++i)
        co_await c.alltoallv_bytes(bytes_to);
    });
    benchmark::DoNotOptimize(w.messages_delivered());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          (state.range(0) - 1) * 2);
}
BENCHMARK(BM_VmpiAlltoall)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
