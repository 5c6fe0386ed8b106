#pragma once

/// \file bench.hpp
/// Shared pieces of the xtbench program: host clock, the span recorder
/// used by the traced mode, run statistics, result digests and the
/// metric sink that main.cpp prints as JSON.
///
/// Everything here times the simulator from the outside: spans wrap
/// calls into xtsim's public API, never code inside src/.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace xtbench {

/// Host seconds since an arbitrary process-wide origin.
inline double now_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

// -- spans ---------------------------------------------------------------

struct Span {
  std::string name;      ///< "<layer>.<what>", e.g. "vmpi.run"
  double start = 0.0;    ///< host seconds (now_s)
  double end = 0.0;
  int parent = -1;       ///< index of the enclosing span, -1 = root
  std::string workload;
};

/// In-memory span store.  Disabled (the default) it records nothing and
/// every Scope costs one branch; spans are only written out at exit.
class Spans {
 public:
  static Spans& get();

  /// Only between passes: sweep threads read the flag.
  void set_enabled(bool on) { enabled_ = on; }
  void set_workload(std::string w) { workload_ = std::move(w); }

  /// Open a span; returns its index, or -1 while disabled.  `parent`
  /// -2 means "innermost open span on this thread".
  int open(const char* name, int parent = -2);
  void close(int id);

  [[nodiscard]] std::vector<Span> snapshot() const;

  /// RAII span around one call.
  class Scope {
   public:
    explicit Scope(const char* name, int parent = -2)
        : id_(Spans::get().open(name, parent)) {}
    ~Scope() { Spans::get().close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] int id() const { return id_; }

   private:
    int id_;
  };

 private:
  bool enabled_ = false;
  std::string workload_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time per layer: each span's duration minus the part of it that
/// its children cover (children may overlap when sweep points run on
/// several threads, so the covered part is the union of their
/// intervals).  Keyed by layer, the span name up to the first '.'.
[[nodiscard]] std::map<std::string, double> self_time_by_layer(
    const std::vector<Span>& spans, const std::string& workload);

/// Write the spans as one JSON document.
void write_spans(const std::string& path, const std::vector<Span>& spans);

// -- statistics ----------------------------------------------------------

[[nodiscard]] double median(std::vector<double> v);
/// Linear-interpolated percentile, p in [0, 100].
[[nodiscard]] double percentile(std::vector<double> v, double p);

/// The `p`-th percentile when at least ten samples lie beyond it, else
/// the sample maximum (reported as percentile 100).
struct Tail {
  double value = 0.0;
  double pct = 100.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail_of(const std::vector<double>& v, double p);

[[nodiscard]] double peak_rss_mb();

// -- digests -------------------------------------------------------------

/// FNV-1a over the exact bit patterns of simulated outputs.
class Digest {
 public:
  Digest& add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return add_u64(bits);
  }
  Digest& add_u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  Digest& add_str(const std::string& s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

[[nodiscard]] std::string hex64(std::uint64_t v);

// -- results -------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main(): metrics by name, the
/// scenario tallies behind `attempted`/`failed`, the digest of every
/// simulated output, and free-form informational lines.
struct Report {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few check messages
  std::string digest;
  std::vector<std::string> info;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Count one checked scenario; records `what` when it failed.
  void scenario(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
  }
};

/// True when `v` is finite and strictly positive.
[[nodiscard]] bool positive(double v);

/// scenario_ms_p50 and scenario_ms_tail (the tail at percentile `pct`,
/// see tail_of), with an info line naming the percentile, the sample
/// count and what one scenario is.
void set_scenario_ms(Report& r, const std::vector<double>& ms, double pct,
                     const std::string& what);

}  // namespace xtbench
