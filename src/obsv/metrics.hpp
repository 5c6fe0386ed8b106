#pragma once

/// \file metrics.hpp
/// Metrics registry: named counters and histograms, each
/// carrying an optional label (rank, node, link class, collective
/// name, ...).  The registry is "lock-free in sim": the simulator is
/// single-threaded, so recording is a map lookup plus an arithmetic
/// update, and instrumented call sites hold on to the returned
/// metric reference so steady-state recording never re-hashes.
///
/// Families are aggregatable across labels (`counter_total`), which is
/// what turns per-rank message counters into a world-level total and
/// per-link byte counters into a torus utilization figure.

#include <cstddef>
#include <map>
#include <string>
#include <string_view>

#include "core/stats.hpp"

namespace xts::obsv {

/// Monotonic sum (events, bytes, flops, ...).
class Counter {
 public:
  void add(double d = 1.0) noexcept { value_ += d; }
  [[nodiscard]] double value() const noexcept { return value_; }
  void merge(const Counter& o) noexcept { value_ += o.value_; }

 private:
  double value_ = 0.0;
};

/// Distribution metric: streaming moments plus retained samples for
/// exact percentiles (SampleSet).  Suited to per-message latencies and
/// per-phase durations; for very hot series prefer a Counter.
class Histogram {
 public:
  void add(double v) {
    stats_.add(v);
    samples_.add(v);
  }
  [[nodiscard]] std::size_t count() const noexcept { return stats_.count(); }
  [[nodiscard]] double mean() const noexcept { return stats_.mean(); }
  [[nodiscard]] double min() const noexcept { return stats_.min(); }
  [[nodiscard]] double max() const noexcept { return stats_.max(); }
  [[nodiscard]] double sum() const noexcept { return stats_.sum(); }
  [[nodiscard]] double percentile(double q) const {
    return samples_.percentile(q);
  }
  [[nodiscard]] const RunningStats& stats() const noexcept { return stats_; }
  void merge(const Histogram& o) {
    stats_.merge(o.stats_);
    samples_.merge(o.samples_);
  }
  /// Exact-state access for the shard snapshot codec (cache replay).
  [[nodiscard]] const SampleSet& samples() const noexcept { return samples_; }
  void restore(const RunningStats::Raw& stats, std::vector<double> samples) {
    stats_.restore(stats);
    samples_.restore(std::move(samples));
  }

 private:
  RunningStats stats_;
  SampleSet samples_;
};

/// The registry.  Metrics are addressed by (family, label); the same
/// family name must not be reused across metric kinds.  Iteration
/// order (std::map) is deterministic, so exports are reproducible.
class Registry {
 public:
  using CounterFamily = std::map<std::string, Counter, std::less<>>;
  using HistogramFamily = std::map<std::string, Histogram, std::less<>>;

  Counter& counter(std::string_view family, std::string_view label = "");
  Histogram& histogram(std::string_view family, std::string_view label = "");

  /// Sum of a counter family across all labels (0 if absent).
  [[nodiscard]] double counter_total(std::string_view family) const;
  /// Number of distinct labels in a counter family.
  [[nodiscard]] std::size_t counter_labels(std::string_view family) const;

  [[nodiscard]] const std::map<std::string, CounterFamily, std::less<>>&
  counters() const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, HistogramFamily, std::less<>>&
  histograms() const noexcept {
    return histograms_;
  }

  [[nodiscard]] bool empty() const noexcept {
    return counters_.empty() && histograms_.empty();
  }

  /// Fold another registry in, metric by (family, label).  Shards from
  /// a parallel sweep merge in sweep order, so the result is identical
  /// at any --jobs=N.
  void merge(const Registry& o);

  void clear();

 private:
  std::map<std::string, CounterFamily, std::less<>> counters_;
  std::map<std::string, HistogramFamily, std::less<>> histograms_;
};

}  // namespace xts::obsv
