/// \file microbench.cpp
/// Layer microbenches of the traced mode: each isolates one layer's
/// host cost behind xtsim's public API and reports the median over
/// kReps repetitions.  They never run in the end-to-end mode.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/fingerprint.hpp"
#include "cache/store.hpp"
#include "core/engine.hpp"
#include "core/future.hpp"
#include "core/task.hpp"
#include "core/units.hpp"
#include "lustre/lustre.hpp"
#include "machine/presets.hpp"
#include "network/flow_network.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/world.hpp"
#include "workloads.hpp"

namespace xtbench {
namespace {

using xts::Engine;
using xts::Task;

constexpr int kReps = 5;

std::uint64_t xorshift(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

/// Median over kReps of `fn()`, which returns host seconds per unit.
template <typename Fn>
double per_unit(Fn&& fn) {
  std::vector<double> v;
  for (int r = 0; r < kReps; ++r) v.push_back(fn());
  return median(v);
}

// core.event_ns: a hold model of 64 timers; each tick reschedules itself
// at a pseudo-random future instant and posts three zero-delay events,
// the mix coroutine resumption and flow-network dirtying produce.
struct Hold {
  Engine* e = nullptr;
  int remaining = 0;
  std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
  std::uint64_t fired = 0;
};

void hold_tick(Hold* h) {
  ++h->fired;
  for (int i = 0; i < 3; ++i) h->e->schedule_after(0.0, [h] { ++h->fired; });
  if (--h->remaining > 0)
    h->e->schedule_after(1e-9 * static_cast<double>(1 + (xorshift(h->rng) & 1023)),
                         [h] { hold_tick(h); });
}

double event_s(int ticks) {
  Engine e;
  Hold h;
  h.e = &e;
  h.remaining = ticks;
  for (int t = 0; t < 64; ++t)
    e.schedule_after(1e-9 * static_cast<double>(t + 1), [&h] { hold_tick(&h); });
  const double t0 = now_s();
  e.run();
  return (now_s() - t0) / static_cast<double>(e.events_processed());
}

// core.resume_ns: one coroutine awaiting a chain of child tasks.
Task<int> leaf(int x) { co_return x + 1; }

Task<void> await_chain(int n, std::int64_t* sum) {
  for (int i = 0; i < n; ++i) *sum += co_await leaf(i);
}

double resume_s(int n) {
  Engine e;
  std::int64_t sum = 0;
  xts::spawn(e, await_chain(n, &sum));
  const double t0 = now_s();
  e.run();
  const double dt = now_s() - t0;
  if (sum != static_cast<std::int64_t>(n) * (n + 1) / 2)
    throw std::runtime_error("core.resume_ns: wrong chain sum");
  return dt / n;
}

// network.flow_ns: staggered transfer_flow churn between pseudo-random
// nodes of a 512-node torus, so arrivals and departures force rate
// updates while many flows are live.
Task<void> churn_worker(Engine& e, xts::net::FlowNetwork& net, int worker,
                        int nnodes, int reps) {
  std::uint64_t s = 0x9e3779b97f4a7c15ULL +
                    static_cast<std::uint64_t>(worker) * 0xbf58476d1ce4e5b9ULL;
  const auto nn = static_cast<std::uint64_t>(nnodes);
  for (int m = 0; m < reps; ++m) {
    xorshift(s);
    co_await xts::Delay(e, 1e-9 * static_cast<double>(1 + (s & 4095)));
    const auto src = static_cast<xts::net::NodeId>((s >> 12) % nn);
    auto dst = static_cast<xts::net::NodeId>((s >> 32) % nn);
    if (dst == src) dst = static_cast<xts::net::NodeId>((dst + 1) % nnodes);
    co_await net.transfer_flow(src, dst,
                               1024.0 + static_cast<double>(s & 0xffff));
  }
}

double flow_s(int workers, int reps) {
  Engine e;
  const xts::net::TorusDims dims = xts::net::Torus3D::choose_dims(512);
  xts::net::NetConfig cfg;
  cfg.link_bw = 3.0e9;
  cfg.injection_bw = 2.0e9;
  cfg.per_hop_latency = 50e-9;
  xts::net::FlowNetwork net(e, xts::net::Torus3D(dims), cfg);
  for (int w = 0; w < workers; ++w)
    xts::spawn(e, churn_worker(e, net, w, dims.count(), reps));
  const double t0 = now_s();
  e.run();
  return (now_s() - t0) / static_cast<double>(workers * reps);
}

/// Host seconds of one World::run of `program` on XT4 ranks.
double world_run_s(int nranks, xts::machine::ExecMode mode,
                   const xts::vmpi::World::RankProgram& program) {
  xts::vmpi::WorldConfig cfg;
  cfg.machine = xts::machine::xt4();
  cfg.mode = mode;
  cfg.nranks = nranks;
  xts::vmpi::World w(cfg);
  const double t0 = now_s();
  w.run(program);
  return now_s() - t0;
}

// vmpi.pingpong_us: 8-byte round trips between two SN ranks (two nodes).
Task<void> pingpong(xts::vmpi::Comm& c, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    if (c.rank() == 0) {
      co_await c.send_wait(1, 1, 8.0);
      (void)co_await c.recv(1, 2);
    } else {
      (void)co_await c.recv(0, 1);
      co_await c.send_wait(0, 2, 8.0);
    }
  }
}

// vmpi.allreduce_us: 8-byte allreduces over 256 VN ranks.
Task<void> allreduces(xts::vmpi::Comm& c, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    std::vector<double> v(1, 1.0);
    v = co_await c.allreduce_sum(std::move(v));
  }
}

// machine.compute_ns: Comm::compute on both cores of two VN nodes.
Task<void> computes(xts::vmpi::Comm& c, int calls) {
  xts::machine::Work w;
  w.flops = 1.0e4;
  w.flop_efficiency = 0.5;
  w.stream_bytes = 8.0e3;
  for (int i = 0; i < calls; ++i) co_await c.compute(w);
}

// lustre.op_us: 1 MiB writes through Filesystem::write on a bare Engine.
Task<void> writes(xts::lustre::Filesystem& fs, int ops) {
  const xts::lustre::FileLayout f = co_await fs.create(4);
  for (int i = 0; i < ops; ++i)
    co_await fs.write(f, static_cast<double>(i) * xts::units::MiB,
                      xts::units::MiB);
}

double write_s(int ops) {
  Engine e;
  xts::lustre::Filesystem fs(e, xts::lustre::LustreConfig{});
  xts::spawn(e, writes(fs, ops));
  const double t0 = now_s();
  e.run();
  const double dt = now_s() - t0;
  if (fs.bytes_written() != static_cast<double>(ops) * xts::units::MiB)
    throw std::runtime_error("lustre.op_us: writes did not complete");
  return dt / ops;
}

// cache.store_put_us / cache.store_get_us: 4 KiB payloads through a
// disk-backed Store; gets hit the in-process memo, as a warm replay does.
void store_s(const std::string& dir, int n, double* put, double* get) {
  std::filesystem::remove_all(dir);
  std::vector<xts::cache::Key> keys;
  for (int i = 0; i < n; ++i)
    keys.push_back(xts::cache::Fingerprint().add("micro.point", i).done());
  const std::string payload(4096, 'x');
  {
    xts::cache::Store store(dir);
    const double t0 = now_s();
    for (const auto& k : keys) store.put(k, payload);
    const double t1 = now_s();
    std::string out;
    std::size_t found = 0;
    for (const auto& k : keys) found += store.get(k, out) ? 1 : 0;
    const double t2 = now_s();
    if (found != keys.size())
      throw std::runtime_error("cache.store_get_us: stored entries missing");
    *put = (t1 - t0) / n;
    *get = (t2 - t1) / n;
  }
  std::filesystem::remove_all(dir);
}

}  // namespace

void run_microbenches(Report& r, const RunOptions& opt) {
  const int scale = opt.tiny ? 10 : 1;
  using xts::machine::ExecMode;
  r.set("core.event_ns", per_unit([&] { return event_s(250000 / scale); }) * 1e9,
        "ns");
  r.set("core.resume_ns",
        per_unit([&] { return resume_s(1000000 / scale); }) * 1e9, "ns");
  r.set("network.flow_ns",
        per_unit([&] { return flow_s(256, 16 / (opt.tiny ? 4 : 1)); }) * 1e9,
        "ns");
  const int pp = 2000 / scale;
  r.set("vmpi.pingpong_us", per_unit([&] {
          return world_run_s(2, ExecMode::kSN, [pp](xts::vmpi::Comm& c) {
                   return pingpong(c, pp);
                 }) / pp;
        }) * 1e6,
        "us");
  const int ar = opt.tiny ? 2 : 20;
  r.set("vmpi.allreduce_us", per_unit([&] {
          return world_run_s(256, ExecMode::kVN, [ar](xts::vmpi::Comm& c) {
                   return allreduces(c, ar);
                 }) / ar;
        }) * 1e6,
        "us");
  const int calls = 20000 / scale;
  r.set("machine.compute_ns", per_unit([&] {
          return world_run_s(4, ExecMode::kVN, [calls](xts::vmpi::Comm& c) {
                   return computes(c, calls);
                 }) / (4.0 * calls);
        }) * 1e9,
        "ns");
  r.set("lustre.op_us", per_unit([&] { return write_s(2000 / scale); }) * 1e6,
        "us");
  std::vector<double> puts, gets;
  for (int k = 0; k < kReps; ++k) {
    double put = 0.0, get = 0.0;
    store_s(opt.work_dir + "/micro-store", 200 / scale, &put, &get);
    puts.push_back(put);
    gets.push_back(get);
  }
  r.set("cache.store_put_us", median(puts) * 1e6, "us");
  r.set("cache.store_get_us", median(gets) * 1e6, "us");
}

}  // namespace xtbench
