#pragma once

/// \file cache_stats.hpp
/// Process-wide counters for the scenario-result cache (src/cache).
///
/// These live in core — below both src/cache and src/obsv — so the
/// exporters (the "scenario cache" stdout table, the telemetry
/// breakdown record) can report cache behaviour without obsv depending
/// on the cache layer.
///
/// Deliberately NOT part of the deterministic metrics registry: hit and
/// miss counts describe the state of the host's cache directory, not
/// the simulation, and the acceptance contract is that --metrics output
/// is byte-identical between a cold run, a warm run and a cache-off
/// run.  scripts/check_determinism.py scrubs the stdout block these
/// feed, exactly like the "host resources" getrusage block.

#include <atomic>
#include <cstdint>

namespace xts {

struct ScenarioCacheStats {
  std::atomic<bool> enabled{false};  ///< a store was configured
  std::atomic<std::uint64_t> hits{0};        ///< points served from cache
  std::atomic<std::uint64_t> misses{0};      ///< keyed points that ran
  std::atomic<std::uint64_t> dedups{0};      ///< in-sweep aliased points
  std::atomic<std::uint64_t> writes{0};      ///< entries stored
  std::atomic<std::uint64_t> corrupt{0};     ///< entries rejected by checksum
  std::atomic<std::uint64_t> bypassed{0};    ///< keyed points skipped (tracing)

  void bump(std::atomic<std::uint64_t>& c,
            std::uint64_t n = 1) noexcept {
    c.fetch_add(n, std::memory_order_relaxed);
  }
};

/// The process-wide instance (always present; `enabled` says whether a
/// scenario store was armed this run).
inline ScenarioCacheStats& scenario_cache_stats() noexcept {
  static ScenarioCacheStats s;
  return s;
}

}  // namespace xts
