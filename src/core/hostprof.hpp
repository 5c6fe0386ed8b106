#pragma once

/// \file hostprof.hpp
/// Host-side self-profiling: where does the *simulator's* wall-clock
/// go?  Scoped timers charge real (steady-clock) time to a small fixed
/// set of subsystems; accumulators are sharded per host thread (the
/// obsv shard/absorb idea applied to plain doubles) so sweep worker
/// threads and the telemetry sampler never contend.
///
/// Attribution is *exclusive*: entering a nested scope (e.g. a
/// FlowNetwork rate pass inside the engine dispatch loop) charges the
/// elapsed time to the outer subsystem first, then the inner scope's
/// time is its own — per-thread subsystem times tile that thread's
/// covered wall time exactly, so breakdown shares sum to ~100%.
///
/// Cost model: disarmed (the default), a ScopedHostTimer is one
/// relaxed atomic load and a predictable branch; armed, two
/// steady-clock reads per scope.  Only obsv::telemetry::start() arms
/// it — plain runs and the perf gates never pay the clock reads.
/// Nothing here touches simulated state: arming cannot change
/// simulation output bytes.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>

namespace xts {

/// The instrumented subsystems.  "other" (uninstrumented host time) is
/// derived by the telemetry breakdown as wall - sum(tracked), not a
/// slot.
enum class HostSubsys : std::uint8_t {
  kEngine = 0,  ///< engine event dispatch (World::run loop)
  kRates,       ///< FlowNetwork min-share / max-min rate allocation
  kExport,      ///< obsv exporters (trace/profile files, tables)
  kTelemetry,   ///< heartbeat sampler + record emission
};
inline constexpr std::size_t kHostSubsysCount = 4;

[[nodiscard]] const char* host_subsys_name(HostSubsys s) noexcept;

namespace detail {
inline std::atomic<bool> g_hostprof_enabled{false};
}  // namespace detail

class HostProfile {
 public:
  /// Per-subsystem seconds, summed over shards (or one shard's view).
  struct Totals {
    std::array<double, kHostSubsysCount> seconds{};
    [[nodiscard]] double operator[](HostSubsys s) const noexcept {
      return seconds[static_cast<std::size_t>(s)];
    }
  };

  /// Arm/disarm the scoped timers process-wide.
  static void enable(bool on) noexcept {
    detail::g_hostprof_enabled.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] static bool enabled() noexcept {
    return detail::g_hostprof_enabled.load(std::memory_order_relaxed);
  }

  /// Sum the accumulators across every shard ever registered.  Safe to
  /// call from any thread while timers run (shards are single-writer
  /// atomics); an open scope contributes once it next charges.
  [[nodiscard]] static Totals fold();

  /// Zero every shard's accumulators (open scopes keep running).
  static void reset();

  // -- ScopedHostTimer internals -----------------------------------------

  struct Shard {
    std::array<std::atomic<double>, kHostSubsysCount> acc{};
    // Owner-thread-only bookkeeping for exclusive attribution.
    int cur = -1;             ///< subsystem currently on this thread, -1 none
    std::uint64_t last = 0;   ///< steady ns of the last charge point
  };

  /// This thread's shard (registered on first use, lives until exit).
  [[nodiscard]] static Shard& shard();

  [[nodiscard]] static std::uint64_t mono_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// Charge now - last to the shard's current subsystem (owner only).
  static void charge(Shard& sh, std::uint64_t now) noexcept {
    auto& acc = sh.acc[static_cast<std::size_t>(sh.cur)];
    acc.store(acc.load(std::memory_order_relaxed) +
                  static_cast<double>(now - sh.last) * 1e-9,
              std::memory_order_relaxed);
    sh.last = now;
  }
};

/// RAII exclusive host timer; see file comment for the cost model.
class ScopedHostTimer {
 public:
  explicit ScopedHostTimer(HostSubsys s) noexcept {
    if (!HostProfile::enabled()) return;
    shard_ = &HostProfile::shard();
    const std::uint64_t now = HostProfile::mono_ns();
    if (shard_->cur >= 0) HostProfile::charge(*shard_, now);
    prev_ = shard_->cur;
    shard_->cur = static_cast<int>(s);
    shard_->last = now;
  }
  ~ScopedHostTimer() {
    if (shard_ == nullptr) return;
    HostProfile::charge(*shard_, HostProfile::mono_ns());
    shard_->cur = prev_;
  }
  ScopedHostTimer(const ScopedHostTimer&) = delete;
  ScopedHostTimer& operator=(const ScopedHostTimer&) = delete;

 private:
  HostProfile::Shard* shard_ = nullptr;
  int prev_ = -1;
};

}  // namespace xts
