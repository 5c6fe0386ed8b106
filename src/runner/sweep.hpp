#pragma once

/// \file sweep.hpp
/// Parallel sweep runner: execute independent simulation points across
/// host cores.
///
/// Every figure in the paper is a sweep — platform x exec mode x core
/// count — and each point builds, runs and tears down its own World /
/// Engine / FlowNetwork, so points are embarrassingly parallel.  The
/// runner executes them on a fixed-size pool of host threads and
/// returns results **in submission order**, so table/report output is
/// bit-for-bit identical to a serial run at any jobs count:
///
///   std::vector<std::function<double()>> points;
///   for (int n : counts)
///     points.push_back([=] { return hpcc::hpl_tflops(xt4, mode, n); });
///   const std::vector<double> v = runner::sweep(std::move(points), jobs);
///
/// Determinism.  Each point's World is seeded explicitly and touches
/// no cross-world state; the one process-wide structure, the
/// obsv::Session, is handled by giving every point a thread-confined
/// obsv::Shard (installed for the duration of the point) and absorbing
/// the shards back into the session in submission order after the pool
/// joins.  See docs/PARALLELISM.md.
///
/// Scheduling.  Workers pull points longest-expected-first when cost
/// weights are supplied (a sweep's largest world otherwise lands last
/// and serializes the tail); results are still returned in submission
/// order.  jobs <= 0 selects the host's hardware concurrency; jobs == 1
/// runs every point inline on the calling thread (no threads spawned).
///
/// Errors.  A throwing point does not abort its siblings: every point
/// runs, and the first exception in submission order is rethrown after
/// the pool joins and shards are absorbed.  Submitting a sweep from
/// inside a sweep point throws UsageError (worlds sharing a shard must
/// stay on one thread).

#include <cstddef>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "cache/fingerprint.hpp"

namespace xts::runner {

/// Pool width used for jobs <= 0: hardware concurrency, at least 1.
[[nodiscard]] int default_jobs() noexcept;

/// True while the calling thread is executing a sweep point.
[[nodiscard]] bool in_sweep() noexcept;

namespace detail {

/// Bridges the type-erased core to the typed result slots: encode a
/// finished point's result as bytes for the scenario store, or decode
/// stored bytes back into a slot (false = size mismatch, treat the
/// entry as corrupt).
struct PointCodec {
  std::function<std::string(std::size_t)> encode;
  std::function<bool(std::size_t, std::string_view)> decode;
};

/// Type-erased core: run every task, `jobs` at a time, with per-task
/// obsv shards; rethrows the first (submission-order) exception.
/// `weights[i]` orders execution longest-first when non-empty.
/// When `keys` (one scenario key per point; invalid keys opt a point
/// out) and `codec` are given AND a cache::Store is armed, points are
/// probed against the store before scheduling, identical in-flight
/// points are deduplicated to one execution, and fresh results are
/// stored — all without perturbing submission-order results or shard
/// absorption.
void run_points(std::vector<std::function<void()>>& points, int jobs,
                const std::vector<double>& weights,
                const std::vector<cache::Key>& keys = {},
                const PointCodec* codec = nullptr);

}  // namespace detail

/// Run every point and return their results in submission order.
/// `weights` (optional, same length) are relative cost hints — e.g.
/// the point's rank count — used only to schedule long points first.
/// `keys` (optional, same length) are scenario fingerprints enabling
/// the result cache for trivially-copyable result types; points with
/// invalid (default) keys always run.  With no store armed
/// (no --cache-dir) the keys are ignored: every point runs and nothing
/// is stored.
template <typename T>
std::vector<T> sweep(std::vector<std::function<T()>> points, int jobs = 0,
                     const std::vector<double>& weights = {},
                     const std::vector<cache::Key>& keys = {}) {
  std::vector<T> results(points.size());
  std::vector<std::function<void()>> tasks;
  tasks.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    tasks.emplace_back(
        [&results, &points, i] { results[i] = points[i](); });
  if constexpr (std::is_trivially_copyable_v<T> &&
                !std::is_same_v<T, bool>) {
    detail::PointCodec codec;
    codec.encode = [&results](std::size_t i) {
      std::string b(sizeof(T), '\0');
      std::memcpy(b.data(), &results[i], sizeof(T));
      return b;
    };
    codec.decode = [&results](std::size_t i, std::string_view b) {
      if (b.size() != sizeof(T)) return false;
      std::memcpy(&results[i], b.data(), sizeof(T));
      return true;
    };
    detail::run_points(tasks, jobs, weights, keys, &codec);
  } else {
    detail::run_points(tasks, jobs, weights);
  }
  return results;
}

}  // namespace xts::runner
