#pragma once

/// \file resource.hpp
/// Shared simulated resources.
///
/// `SharedServer` models a capacity that concurrent jobs share equally
/// (processor-sharing queue): with N active jobs each progresses at
/// capacity/N.  It is the building block for memory controllers and NIC
/// injection engines, where the paper's key dual-core effects (halved
/// per-core STREAM bandwidth, halved per-core injection bandwidth in VN
/// mode) arise structurally from two jobs sharing one server.
///
/// `FifoResource` admits up to `slots` holders and queues the rest,
/// granting in arrival order: with one slot it is the mutual-exclusion
/// lock of the VN-mode NIC and the Lustre MDS; with `ost_queue_depth`
/// slots it is a Lustre OST's bounded request queue.

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/future.hpp"
#include "core/ring_queue.hpp"

namespace xts {

/// Processor-sharing server: jobs of `amount` units complete after being
/// served at an equal share of `capacity` units/second.
class SharedServer {
 public:
  /// \param capacity   aggregate units/second
  /// \param per_job_cap  maximum rate a single job can sustain (defaults
  ///        to `capacity`); models e.g. one core being unable to extract
  ///        the socket's full dual-core memory bandwidth.
  SharedServer(Engine& engine, double capacity, std::string name = {},
               double per_job_cap = 0.0);

  SharedServer(const SharedServer&) = delete;
  SharedServer& operator=(const SharedServer&) = delete;

  /// Begin consuming `amount` units; the returned future completes when
  /// the job has been fully served.  `amount == 0` completes immediately.
  [[nodiscard]] SimFutureV consume(double amount);

  [[nodiscard]] double capacity() const noexcept { return capacity_; }
  [[nodiscard]] double per_job_cap() const noexcept { return per_job_cap_; }
  /// Current per-job service rate.
  [[nodiscard]] double rate() const noexcept;
  [[nodiscard]] std::size_t active_jobs() const noexcept {
    return jobs_.size();
  }
  /// Total units served since construction (for conservation tests).
  [[nodiscard]] double total_served() const noexcept { return total_served_; }
  /// Simulated seconds with at least one active job.
  [[nodiscard]] double busy_time() const noexcept { return busy_time_; }
  /// Simulated seconds with two or more jobs sharing the capacity.
  [[nodiscard]] double contended_time() const noexcept {
    return contended_time_;
  }
  /// High-water mark of concurrently active jobs.
  [[nodiscard]] std::size_t peak_jobs() const noexcept { return peak_jobs_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  struct Job {
    double remaining;
    SimPromiseV promise;
  };

  void settle();            // advance all jobs to engine_.now()
  void schedule_next();     // (re)schedule the earliest completion event
  void on_completion(std::uint64_t epoch);

  Engine& engine_;
  double capacity_;
  double per_job_cap_;
  std::string name_;
  std::vector<Job> jobs_;
  SimTime last_settle_ = 0.0;
  std::uint64_t epoch_ = 0;  // invalidates stale completion events
  double total_served_ = 0.0;
  double busy_time_ = 0.0;
  double contended_time_ = 0.0;
  std::size_t peak_jobs_ = 0;
};

/// Counting resource with FIFO granting.
class FifoResource {
 public:
  /// \param slots  concurrent holders admitted (>= 1).
  explicit FifoResource(Engine& engine, int slots = 1);

  FifoResource(const FifoResource&) = delete;
  FifoResource& operator=(const FifoResource&) = delete;

  /// Completes when the caller holds the resource.
  [[nodiscard]] SimFutureV acquire();

  /// Release one slot; hands it to the next waiter if any.
  void release();

  /// True when every slot is held (a new acquire would queue).
  [[nodiscard]] bool busy() const noexcept { return held_ == slots_; }
  [[nodiscard]] std::size_t waiters() const noexcept {
    return waiters_.size();
  }

 private:
  Engine& engine_;
  int slots_;
  int held_ = 0;
  // RingQueue, not std::deque: an idle FifoResource (one per simulated
  // node) must cost no heap — see core/ring_queue.hpp.
  RingQueue<SimPromiseV> waiters_;
};

}  // namespace xts
