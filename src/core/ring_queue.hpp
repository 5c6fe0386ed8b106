#pragma once

/// \file ring_queue.hpp
/// A minimal FIFO ring over a power-of-two `std::vector`.
///
/// Replaces `std::deque` where the common case is *empty*: libstdc++'s
/// deque eagerly allocates a 512-byte chunk plus its map, costing
/// ~650 bytes per idle instance — ruinous for per-node / per-rank
/// queues at million-rank scale.  An empty RingQueue is just an empty
/// vector (24 bytes, no allocation); capacity is grabbed on first push
/// and grows by doubling.  The Engine's same-instant event lane and
/// FifoResource's waiters use it.  Only the operations the simulator
/// needs: push_back / front / pop_front / empty / size.
///
/// T must be default-constructible and movable; pop_front resets the
/// popped slot to T{} so it releases what it held.

#include <cstddef>
#include <utility>
#include <vector>

namespace xts {

template <typename T>
class RingQueue {
 public:
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }

  void push_back(T v) {
    if (count_ == slots_.size()) grow();
    slots_[(head_ + count_) & (slots_.size() - 1)] = std::move(v);
    ++count_;
  }

  [[nodiscard]] T& front() noexcept { return slots_[head_]; }
  [[nodiscard]] const T& front() const noexcept { return slots_[head_]; }

  void pop_front() noexcept {
    slots_[head_] = T{};  // release resources held by the popped slot
    head_ = (head_ + 1) & (slots_.size() - 1);
    --count_;
  }

 private:
  void grow() {
    const std::size_t cap = slots_.empty() ? 4 : slots_.size() * 2;
    std::vector<T> grown(cap);
    for (std::size_t i = 0; i < count_; ++i)
      grown[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    slots_ = std::move(grown);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

}  // namespace xts
