// Lazy coroutine task type for simulated processes.
//
// Simulated software (firmware stages, the message library, benchmark
// kernels) is written as ordinary-looking sequential code that co_awaits
// simulated time: `co_await engine.delay(ns(50))`, `co_await chan.pop()`.
// Task<T> supports composition — awaiting a child Task suspends the parent
// until the child co_returns — via symmetric transfer, so arbitrarily deep
// call chains cost no stack.
//
// Coroutine frames are recycled: every Task frame is allocated through
// PromiseBase's class-level operator new, which serves it from a per-thread
// freelist of its 16-byte size class. A memory operation, a link pump step
// or a message-library call each creates a frame or two, so this keeps the
// steady-state hot path free of malloc/free (see docs/SIMULATOR.md, "Host
// cost per event"). Frames parked on a freelist are ASan-poisoned, so a use
// after destroy is still reported.
#pragma once

#include <sanitizer/asan_interface.h>

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <new>
#include <optional>
#include <utility>

#include "common/error.hpp"

namespace tcc::sim {

class Engine;

template <typename T>
class Task;

namespace detail {

inline constexpr std::size_t kFrameGrain = 16;
/// Frames larger than this bypass the freelists (none on the hot path do).
inline constexpr std::size_t kFrameCap = 2048;
inline constexpr std::size_t kFrameClasses = kFrameCap / kFrameGrain;

/// Per-thread frame freelists. Trivially destructible with a constant
/// initializer, so access needs no guard. The first fresh frame arms a
/// thread-exit hook (engine.cpp) that returns the parked frames to the heap
/// and closes the lists; while the lists are not armed, a released frame goes
/// straight to ::operator delete. That covers frames freed by static
/// destructors, which run after thread-exit hooks.
struct FrameFreelists {
  enum class State : std::uint8_t { kUnarmed, kArmed, kClosed };
  void* head[kFrameClasses];  ///< class c holds (c + 1) * kFrameGrain-byte frames
  State state;
};
inline thread_local constinit FrameFreelists frame_freelists{};

/// Slow path, out of line in engine.cpp: a fresh frame for an empty class.
void* new_frame(std::size_t cls);

/// A top-level process ran to completion: queue its frame for reaping.
void note_finished(Engine& engine, std::coroutine_handle<> h);

struct PromiseBase {
  std::coroutine_handle<> continuation;  // resumed when this coroutine finishes
  std::exception_ptr exception;
  Engine* owner = nullptr;       // set by Engine::spawn on top-level processes
  std::size_t process_slot = 0;  // this process's index in the owner's table

  static void* operator new(std::size_t n) {
    if (n > kFrameCap) return ::operator new(n);
    const std::size_t cls = (n - 1) / kFrameGrain;
    void* p = frame_freelists.head[cls];
    if (p == nullptr) return new_frame(cls);
    ASAN_UNPOISON_MEMORY_REGION(p, (cls + 1) * kFrameGrain);
    frame_freelists.head[cls] = *static_cast<void**>(p);
    return p;
  }
  static void operator delete(void* p, std::size_t n) noexcept {
    if (n > kFrameCap || frame_freelists.state != FrameFreelists::State::kArmed) {
      ::operator delete(p);
      return;
    }
    const std::size_t cls = (n - 1) / kFrameGrain;
    *static_cast<void**>(p) = frame_freelists.head[cls];
    frame_freelists.head[cls] = p;
    ASAN_POISON_MEMORY_REGION(p, (cls + 1) * kFrameGrain);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <typename Promise>
    std::coroutine_handle<> await_suspend(std::coroutine_handle<Promise> h) noexcept {
      auto& p = h.promise();
      if (p.continuation) return p.continuation;
      if (p.owner != nullptr) note_finished(*p.owner, h);
      return std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() { exception = std::current_exception(); }
};

template <typename T>
struct Promise : PromiseBase {
  std::optional<T> value;
  Task<T> get_return_object();
  // emplace, not assignment: T only needs to be move-constructible.
  void return_value(T v) { value.emplace(std::move(v)); }
};

template <>
struct Promise<void> : PromiseBase {
  Task<void> get_return_object();
  void return_void() {}
};

}  // namespace detail

/// A lazily started coroutine. Move-only; owns its frame.
template <typename T = void>
class [[nodiscard]] Task {
 public:
  using promise_type = detail::Promise<T>;
  using Handle = std::coroutine_handle<promise_type>;

  Task() = default;
  explicit Task(Handle h) : handle_(h) {}
  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      destroy();
      handle_ = std::exchange(o.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  [[nodiscard]] bool valid() const { return handle_ != nullptr; }
  [[nodiscard]] bool done() const { return handle_ && handle_.done(); }

  /// Awaiting a Task starts it and resumes the awaiter when it co_returns.
  auto operator co_await() && {
    struct Awaiter {
      Handle handle;
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<> cont) noexcept {
        handle.promise().continuation = cont;
        return handle;  // symmetric transfer into the child
      }
      T await_resume() {
        if (handle.promise().exception) std::rethrow_exception(handle.promise().exception);
        if constexpr (!std::is_void_v<T>) {
          return std::move(*handle.promise().value);
        }
      }
    };
    TCC_ASSERT(handle_ != nullptr, "co_await on an empty Task");
    return Awaiter{handle_};
  }

  /// For the engine: detach the raw handle (caller takes over destruction).
  Handle release() { return std::exchange(handle_, nullptr); }

 private:
  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }
  Handle handle_ = nullptr;
};

namespace detail {
template <typename T>
Task<T> Promise<T>::get_return_object() {
  return Task<T>{std::coroutine_handle<Promise<T>>::from_promise(*this)};
}
inline Task<void> Promise<void>::get_return_object() {
  return Task<void>{std::coroutine_handle<Promise<void>>::from_promise(*this)};
}
}  // namespace detail

}  // namespace tcc::sim
