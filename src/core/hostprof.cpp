#include "core/hostprof.hpp"

#include <deque>
#include <mutex>

namespace xts {

const char* host_subsys_name(HostSubsys s) noexcept {
  switch (s) {
    case HostSubsys::kEngine: return "engine";
    case HostSubsys::kRates: return "net.rates";
    case HostSubsys::kExport: return "obsv.export";
    case HostSubsys::kTelemetry: return "telemetry";
  }
  return "?";
}

namespace {

// Shards are appended once per thread and never removed: a worker
// thread's accumulated time must survive the thread (sweep workers are
// joined before the exit-time breakdown is written).  std::deque keeps
// them address-stable for the thread_local pointers.
struct ShardRegistry {
  std::mutex mu;
  std::deque<HostProfile::Shard> shards;
};

ShardRegistry& registry() {
  static ShardRegistry r;
  return r;
}

thread_local HostProfile::Shard* tls_hostprof_shard = nullptr;

}  // namespace

HostProfile::Shard& HostProfile::shard() {
  if (tls_hostprof_shard == nullptr) {
    ShardRegistry& r = registry();
    const std::lock_guard<std::mutex> lk(r.mu);
    tls_hostprof_shard = &r.shards.emplace_back();
  }
  return *tls_hostprof_shard;
}

HostProfile::Totals HostProfile::fold() {
  Totals out;
  ShardRegistry& r = registry();
  const std::lock_guard<std::mutex> lk(r.mu);
  for (const Shard& sh : r.shards)
    for (std::size_t i = 0; i < kHostSubsysCount; ++i)
      out.seconds[i] += sh.acc[i].load(std::memory_order_relaxed);
  return out;
}

void HostProfile::reset() {
  ShardRegistry& r = registry();
  const std::lock_guard<std::mutex> lk(r.mu);
  for (Shard& sh : r.shards)
    for (auto& a : sh.acc) a.store(0.0, std::memory_order_relaxed);
}

}  // namespace xts
