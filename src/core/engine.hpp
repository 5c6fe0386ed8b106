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
///  - a hand-rolled binary min-heap of (time, seq, fn) for future
///    events, moved with plain byte copies (see InlineFn);
///  - an O(1) FIFO ring for events scheduled at exactly the current
///    instant — the schedule_after(0.0) traffic of coroutine
///    resumption, promise delivery, and flow-network dirtying, which
///    dominates the event mix and never needs heap ordering.
/// Every FIFO entry carries time == now(): the ring drains before time
/// can advance past it, and (time, seq) order across both structures is
/// preserved exactly.
///
/// One Engine runs on one host thread; concurrency lives between
/// Worlds (runner::sweep, `--jobs`), never inside one.

#include <cstdint>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/inline_fn.hpp"
#include "core/progress.hpp"
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
    if (t == now_) {
      fifo_push(Event{t, next_seq_++, std::move(fn)});
    } else {
      heap_push(Event{t, next_seq_++, std::move(fn)});
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
    if (fifo_count_ > 0) {
      // Heap events at the same instant but scheduled earlier (when the
      // instant was still in the future) must fire before ring entries.
      if (!heap_.empty() && heap_[0].time == now_ &&
          heap_[0].seq < fifo_front().seq) {
        ev = heap_pop();
      } else {
        ev = fifo_pop();
      }
    } else if (!heap_.empty()) {
      ev = heap_pop();
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
    return fifo_count_ + heap_.size();
  }

 private:
  static constexpr std::size_t kProgressStride = 1024;

  struct Event {
    SimTime time = 0.0;
    std::uint64_t seq = 0;
    InlineFn fn;
  };

  static bool before(const Event& a, const Event& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  // -- binary min-heap over (time, seq), hole-based sifts ----------------

  void heap_push(Event&& ev) {
    heap_.push_back(std::move(ev));
    std::size_t i = heap_.size() - 1;
    if (i == 0) return;
    Event tmp = std::move(heap_[i]);
    while (i > 0) {
      const std::size_t parent = (i - 1) / 2;
      if (!before(tmp, heap_[parent])) break;
      heap_[i] = std::move(heap_[parent]);
      i = parent;
    }
    heap_[i] = std::move(tmp);
  }

  Event heap_pop() {
    Event top = std::move(heap_[0]);
    Event last = std::move(heap_.back());
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n > 0) {
      // Sift the hole down to a leaf along the smaller-child path (one
      // comparison per level), then bubble the displaced last element
      // up — it almost always belongs near the leaves, so the bubble
      // phase exits immediately.
      std::size_t hole = 0;
      std::size_t child = 1;
      while (child < n) {
        if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
        heap_[hole] = std::move(heap_[child]);
        hole = child;
        child = 2 * hole + 1;
      }
      while (hole > 0) {
        const std::size_t parent = (hole - 1) / 2;
        if (!before(last, heap_[parent])) break;
        heap_[hole] = std::move(heap_[parent]);
        hole = parent;
      }
      heap_[hole] = std::move(last);
    }
    return top;
  }

  // -- same-instant FIFO ring (power-of-two capacity) --------------------

  [[nodiscard]] const Event& fifo_front() const noexcept {
    return fifo_[fifo_head_];
  }

  void fifo_push(Event&& ev) {
    if (fifo_count_ == fifo_.size()) fifo_grow();
    fifo_[(fifo_head_ + fifo_count_) & (fifo_.size() - 1)] = std::move(ev);
    ++fifo_count_;
  }

  Event fifo_pop() {
    Event ev = std::move(fifo_[fifo_head_]);
    fifo_head_ = (fifo_head_ + 1) & (fifo_.size() - 1);
    --fifo_count_;
    return ev;
  }

  void fifo_grow() {
    const std::size_t cap = fifo_.empty() ? 16 : fifo_.size() * 2;
    std::vector<Event> grown(cap);
    for (std::size_t i = 0; i < fifo_count_; ++i)
      grown[i] = std::move(fifo_[(fifo_head_ + i) & (fifo_.size() - 1)]);
    fifo_ = std::move(grown);
    fifo_head_ = 0;
  }

  RunProgress* progress_ = nullptr;
  std::size_t progress_published_ = 0;
  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t events_processed_ = 0;
  std::vector<Event> heap_;
  std::vector<Event> fifo_;
  std::size_t fifo_head_ = 0;
  std::size_t fifo_count_ = 0;
};

}  // namespace xts
