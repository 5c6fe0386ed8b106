#pragma once

/// \file future.hpp
/// One-shot cross-coroutine signalling.
///
/// `SimPromise<T>` / `SimFuture<T>` connect a producer event (message
/// delivery, resource grant, flow completion) to a waiting coroutine.
/// The future is awaitable exactly once; setting the value resumes the
/// waiter through the event queue at the current simulated time.
/// Also provides `Delay`, the awaitable returned by Engine-based
/// contexts to advance simulated time.

#include <coroutine>
#include <memory>
#include <optional>
#include <utility>

#include "core/engine.hpp"
#include "core/error.hpp"

namespace xts {

namespace detail {

template <typename T>
struct FutureState {
  Engine* engine = nullptr;
  std::optional<T> value;
  std::coroutine_handle<> waiter{};
  bool consumed = false;

  void deliver() {
    if (waiter) {
      auto h = std::exchange(waiter, {});
      engine->schedule_after(0.0, [h] { h.resume(); });
    }
  }
};

}  // namespace detail

template <typename T>
class SimFuture;

/// Producer side.  Copyable handle to the shared state so it can be
/// captured by callbacks registered with the engine.
template <typename T>
class SimPromise {
 public:
  /// Empty promise (no shared state): a placeholder slot that can be
  /// move-assigned a live promise later.  Calling set_value or future()
  /// on it is a usage error.
  SimPromise() noexcept = default;

  explicit SimPromise(Engine& engine)
      : state_(std::make_shared<detail::FutureState<T>>()) {
    state_->engine = &engine;
  }

  /// True when this promise owns shared state (was not
  /// default-constructed or moved from).
  [[nodiscard]] bool valid() const noexcept { return state_ != nullptr; }

  void set_value(T v) const {
    if (!state_) throw UsageError("SimPromise: empty promise");
    if (state_->value) throw UsageError("SimPromise: value already set");
    state_->value.emplace(std::move(v));
    state_->deliver();
  }

  [[nodiscard]] SimFuture<T> future() const;

 private:
  std::shared_ptr<detail::FutureState<T>> state_;
};

/// Consumer side: `T result = co_await promise.future();`
template <typename T>
class [[nodiscard]] SimFuture {
 public:
  explicit SimFuture(std::shared_ptr<detail::FutureState<T>> s)
      : state_(std::move(s)) {}

  bool await_ready() const noexcept { return state_->value.has_value(); }

  void await_suspend(std::coroutine_handle<> h) {
    if (state_->waiter)
      throw UsageError("SimFuture: at most one waiter is supported");
    state_->waiter = h;
  }

  T await_resume() {
    if (state_->consumed) throw UsageError("SimFuture: already consumed");
    state_->consumed = true;
    return std::move(*state_->value);
  }

 private:
  std::shared_ptr<detail::FutureState<T>> state_;
};

template <typename T>
SimFuture<T> SimPromise<T>::future() const {
  if (!state_) throw UsageError("SimPromise: empty promise");
  return SimFuture<T>(state_);
}

/// Monostate-like unit type for futures that only signal completion.
struct Done {};

using SimPromiseV = SimPromise<Done>;
using SimFutureV = SimFuture<Done>;

/// Awaitable that advances simulated time by a fixed delay.
class [[nodiscard]] Delay {
 public:
  Delay(Engine& engine, SimTime dt) : engine_(&engine), dt_(dt) {
    if (dt < 0) throw UsageError("Delay: negative duration");
  }

  bool await_ready() const noexcept { return dt_ == 0.0; }
  void await_suspend(std::coroutine_handle<> h) const {
    engine_->schedule_after(dt_, [h] { h.resume(); });
  }
  void await_resume() const noexcept {}

 private:
  Engine* engine_;
  SimTime dt_;
};

}  // namespace xts
