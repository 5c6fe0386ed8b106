#pragma once

/// \file engine.hpp
/// The discrete-event simulation engine.
///
/// Events are (time, sequence) ordered: two events at the same simulated
/// time fire in the order they were scheduled, which makes every run with
/// the same seed bit-for-bit reproducible.  All coroutine resumptions go
/// through the event queue, so there is never re-entrant resumption and
/// native stack depth stays bounded regardless of how many simulated
/// processes signal one another.
///
/// Internally the queue is two structures:
///  - a binary min-heap of (time, seq, fn) for future events, kept by
///    std::push_heap/std::pop_heap;
///  - a FIFO lane (core/ring_queue.hpp) for events scheduled at exactly
///    the current instant — the schedule_after(0.0) traffic of coroutine
///    resumption, promise delivery, and flow-network dirtying, which
///    dominates the event mix and never needs heap ordering.
/// Every FIFO entry carries time == now(): the lane drains before time
/// can advance past it, and (time, seq) order across both structures is
/// preserved exactly.
///
/// One Engine runs on one host thread; concurrency lives between
/// Worlds (runner::sweep, `--jobs`), never inside one.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/inline_fn.hpp"
#include "core/progress.hpp"
#include "core/ring_queue.hpp"
#include "core/units.hpp"

namespace xts {

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current simulated time in seconds.
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Heartbeat progress sink (null => off, the default).  While set,
  /// step() refreshes it every kProgressStride events with relaxed
  /// stores — no clock reads, no effect on event order or output.
  void set_progress(RunProgress* progress) noexcept { progress_ = progress; }

  /// Push the current counters to the progress sink now (no-op when
  /// none is set).  Callers invoke this after run() so the final
  /// sub-stride tail is visible to the sampler.
  void publish_progress() noexcept {
    if (progress_ == nullptr) return;
    progress_->sim_time.store(now_, std::memory_order_relaxed);
    progress_->events.fetch_add(events_processed_ - progress_published_,
                                std::memory_order_relaxed);
    progress_published_ = events_processed_;
    progress_->queue_depth.store(events_pending(),
                                 std::memory_order_relaxed);
  }

  /// Schedule \p fn to run at absolute simulated time \p t (>= now()).
  void schedule_at(SimTime t, InlineFn fn) {
    if (t < now_) throw UsageError("Engine::schedule_at: time in the past");
    Event ev{t, next_seq_++, std::move(fn)};
    if (t == now_) {
      fifo_.push_back(std::move(ev));
    } else {
      heap_.push_back(std::move(ev));
      std::push_heap(heap_.begin(), heap_.end(), later);
    }
  }

  /// Schedule \p fn to run \p dt seconds from now.
  void schedule_after(SimTime dt, InlineFn fn) {
    if (dt < 0) throw UsageError("Engine::schedule_after: negative delay");
    schedule_at(now_ + dt, std::move(fn));
  }

  /// Run one event.  Returns false when the queue is empty.
  bool step() {
    Event ev;
    // Heap events at the same instant but scheduled earlier (when the
    // instant was still in the future) must fire before FIFO entries.
    if (!heap_.empty() && (fifo_.empty() || later(fifo_.front(), heap_[0]))) {
      std::pop_heap(heap_.begin(), heap_.end(), later);
      ev = std::move(heap_.back());
      heap_.pop_back();
    } else if (!fifo_.empty()) {
      ev = std::move(fifo_.front());
      fifo_.pop_front();
    } else {
      return false;
    }
    now_ = ev.time;
    ++events_processed_;
    if (progress_ != nullptr &&
        (events_processed_ & (kProgressStride - 1)) == 0)
      publish_progress();
    ev.fn();
    return true;
  }

  /// Run until no events remain.
  void run() {
    while (step()) {
    }
  }

  [[nodiscard]] std::size_t events_processed() const noexcept {
    return events_processed_;
  }
  [[nodiscard]] std::size_t events_pending() const noexcept {
    return fifo_.size() + heap_.size();
  }

 private:
  static constexpr std::size_t kProgressStride = 1024;

  struct Event {
    SimTime time = 0.0;
    std::uint64_t seq = 0;
    InlineFn fn;
  };

  /// Heap order: "a fires after b" makes std::*_heap a min-heap.
  static bool later(const Event& a, const Event& b) noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  RunProgress* progress_ = nullptr;
  std::size_t progress_published_ = 0;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t events_processed_ = 0;
  std::vector<Event> heap_;
  RingQueue<Event> fifo_;
};

}  // namespace xts
