#pragma once

/// \file workloads.hpp
/// The benchmark's three workloads (README.md says why each exists).
///
/// A run of one workload is: set-up `kSetups` times (input generation
/// from the seed, construction, one untimed warm-up scenario; the
/// median is `setup_s`), then timed passes until the time budget is
/// spent.  Every pass re-runs the same generated inputs, so its
/// simulated outputs must equal the warm-up's and the first pass's.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"

namespace xtbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool tiny = false;       ///< self-test sizes
  std::string work_dir;    ///< scratch space for the cache store
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One set-up; the last one leaves the workload ready for pass().
  virtual void setup() = 0;
  /// One timed pass over the generated inputs.  While `traced`, the
  /// pass also gathers the per-layer figures (and Spans records).
  virtual void pass(bool traced) = 0;
  /// Host seconds of the most recent pass.
  [[nodiscard]] virtual double last_pass_s() const = 0;

  /// End-to-end metrics over the untraced passes.
  virtual void end_to_end(Report& r) = 0;
  /// Per-layer metrics over the traced passes.
  virtual void layers(Report& r) = 0;

  /// Move the scenario checks made so far into `r`.
  void take_checks(Report& r) {
    r.attempted += checks_.attempted;
    r.failed += checks_.failed;
    r.failures.insert(r.failures.end(), checks_.failures.begin(),
                      checks_.failures.end());
    checks_ = Report{};
  }
  /// Digest of every simulated output of one pass, in submission order.
  [[nodiscard]] std::string digest() const { return hex64(digest_); }

 protected:
  Report checks_;
  std::uint64_t digest_ = 0;
};

inline const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"alltoall_1k", "app_mix",
                                                 "armed_sweep"};
  return names;
}

/// Null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name,
                                                      const RunOptions& opt);

/// Layer microbenches (traced mode only): core.event_ns, core.resume_ns,
/// network.flow_ns, vmpi.pingpong_us, vmpi.allreduce_us,
/// machine.compute_ns, lustre.op_us, cache.store_put_us and
/// cache.store_get_us.
void run_microbenches(Report& r, const RunOptions& opt);

}  // namespace xtbench
