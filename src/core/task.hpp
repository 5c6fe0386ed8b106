#pragma once

/// \file task.hpp
/// C++20 coroutine task type for simulated processes.
///
/// `Task<T>` is a lazy coroutine: nothing runs until it is either
/// `co_await`ed by another task (structured call), handed to
/// `spawn(engine, task)` as a detached root process, or started as an
/// owned root with `Task<void>::start`.  Completion of a
/// child resumes its parent by symmetric transfer, so arbitrarily deep
/// call chains cost no native stack.  `Task<void>` is the same class
/// template; only its promise's result slot differs (`return_void`
/// instead of `return_value` into an `optional<T>`).
///
/// Usage in simulated code looks like ordinary sequential code:
/// \code
///   Task<double> worker(Ctx& ctx) {
///     co_await ctx.delay(1.0 * units::us);
///     double x = co_await ctx.recv_value();
///     co_return x * 2;
///   }
/// \endcode

#include <coroutine>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>

#include "core/engine.hpp"
#include "core/error.hpp"

namespace xts {

template <typename T = void>
class Task;

namespace detail {

struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }

  template <typename Promise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    auto& p = h.promise();
    if (p.continuation) return p.continuation;
    if (p.detached) {
      // Root task spawned with spawn(): nobody owns the handle anymore,
      // destroy the frame now that it is suspended at final_suspend.
      h.destroy();
    }
    return std::noop_coroutine();
  }

  void await_resume() const noexcept {}
};

struct PromiseBase {
  std::coroutine_handle<> continuation{};
  bool detached = false;
  std::exception_ptr exception{};

  std::suspend_always initial_suspend() noexcept { return {}; }
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() {
    // Awaited tasks deliver their exception to the awaiter; a detached
    // (spawned) task has no awaiter, so let the exception propagate out
    // of Engine::step() to the driver instead of vanishing.
    if (detached) throw;
    exception = std::current_exception();
  }
};

/// Where a finished task leaves its result: an optional<T> filled by
/// `co_return v;`, or nothing for Task<void>.
template <typename T>
struct ResultSlot {
  std::optional<T> value;
  template <typename U>
  void return_value(U&& v) {
    value.emplace(std::forward<U>(v));
  }
  T take() { return std::move(*value); }
};

template <>
struct ResultSlot<void> {
  void return_void() noexcept {}
  void take() noexcept {}
};

}  // namespace detail

/// Lazy coroutine task returning T (or nothing, for Task<void>).
template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase, detail::ResultSlot<T> {
    Task get_return_object() noexcept {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
  };

  Task() noexcept = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const noexcept { return handle_ != nullptr; }

  /// Awaiting a task starts it; the awaiter resumes when it co_returns.
  auto operator co_await() && noexcept {
    struct Awaiter {
      std::coroutine_handle<promise_type> child;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(
          std::coroutine_handle<> parent) noexcept {
        child.promise().continuation = parent;
        return child;  // symmetric transfer: start the child
      }
      T await_resume() {
        auto& p = child.promise();
        if (p.exception) std::rethrow_exception(p.exception);
        return p.take();
      }
    };
    return Awaiter{handle_};
  }

  /// Release ownership of the coroutine handle (used by spawn()).
  std::coroutine_handle<promise_type> release() noexcept {
    return std::exchange(handle_, {});
  }

  /// Start this task as a root process that the caller keeps owning
  /// (spawn() gives ownership up): the first resumption is scheduled
  /// as spawn() schedules it, a finished frame stays parked at
  /// final_suspend, and destroying this Task destroys the frame whether
  /// or not it finished.
  void start(Engine& engine) const
    requires std::is_void_v<T>
  {
    if (!valid()) throw UsageError("Task::start: invalid task");
    engine.schedule_after(0.0, [h = handle_] { h.resume(); });
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> h) noexcept : handle_(h) {}

  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_{};
};

/// Start \p task as a detached root process.  The first resumption is
/// scheduled through the event queue at the current simulated time, so
/// spawn order == start order.  The coroutine frame self-destroys on
/// completion.  An exception escaping a detached task calls
/// std::terminate via the scheduled resume (simulated processes are
/// expected to handle their own errors); tests exercise error paths via
/// awaited tasks instead.
inline void spawn(Engine& engine, Task<void> task) {
  if (!task.valid()) throw UsageError("spawn: invalid task");
  auto h = task.release();
  h.promise().detached = true;
  engine.schedule_after(0.0, [h] { h.resume(); });
}

}  // namespace xts
