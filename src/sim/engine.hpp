// Discrete-event simulation engine.
//
// Single-threaded and deterministic: events fire in (time, insertion-sequence)
// order, so two runs of the same configuration produce identical timelines.
//
// Two interchangeable schedulers implement that contract (see
// docs/SIMULATOR.md for the performance model):
//
//  * Scheduler::kCalendar (default) — a calendar queue: an array of
//    power-of-two-width time buckets covering a sliding window, an overflow
//    min-heap for events beyond the window, a FIFO fast path for zero-delay
//    events, slab-recycled event nodes with an inline small-buffer callable,
//    handle-based cancellable timers, and O(1) skip-ahead to the next
//    occupied bucket when the sim goes idle. With coroutine frames recycled
//    by sim/task.hpp and Trigger wake lists reused, the steady-state hot path
//    makes no per-event heap allocation.
//
//  * Scheduler::kHeapReference — the pre-calendar implementation kept
//    byte-for-byte faithful (global std::priority_queue of std::function
//    events, cancelled timers dispatched as dead no-ops). It exists so the
//    determinism suite can diff timelines against the calendar queue and so
//    bench/sim_throughput can report an honest speedup.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "sim/event.hpp"
#include "sim/task.hpp"

namespace tcc::sim {

class Engine;

/// Which event-queue implementation an Engine uses. Both honor the exact
/// same (time, insertion-sequence) dispatch order; they differ only in cost.
enum class Scheduler : std::uint8_t {
  kCalendar,       ///< calendar queue + overflow heap (fast, default)
  kHeapReference,  ///< pre-calendar binary heap (reference for diffing/benching)
};

/// Awaitable that suspends a coroutine for a fixed amount of simulated time.
class DelayAwaiter {
 public:
  DelayAwaiter(Engine& engine, Picoseconds duration)
      : engine_(engine), duration_(duration) {}
  bool await_ready() const noexcept { return duration_ == Picoseconds::zero(); }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept {}

 private:
  Engine& engine_;
  Picoseconds duration_;
};

/// Awaitable for Engine::sleep_for: like delay(), but the suspension is a
/// cancellable timer whose handle is parked in a caller-owned slot so
/// another process can cut the sleep short with Engine::wake().
class SleepAwaiter {
 public:
  SleepAwaiter(Engine& engine, Picoseconds duration, TimerHandle& slot)
      : engine_(engine), duration_(duration), slot_(slot) {}
  bool await_ready() const noexcept { return duration_ == Picoseconds::zero(); }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept { slot_.reset(); }

 private:
  Engine& engine_;
  Picoseconds duration_;
  TimerHandle& slot_;
};

/// Discrete-event engine: an event queue plus the set of running processes.
class Engine {
 public:
  explicit Engine(Scheduler scheduler = Scheduler::kCalendar);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  [[nodiscard]] Picoseconds now() const { return now_; }
  [[nodiscard]] Scheduler scheduler() const { return mode_; }

  /// Schedule a callback `delay` after the current time. The callable is
  /// stored inline (no heap allocation) when its captures fit
  /// InlineFn::kInlineBytes and its move cannot throw.
  template <typename F>
  void schedule(Picoseconds delay, F&& fn) {
    TCC_ASSERT(delay >= Picoseconds::zero(), "cannot schedule into the past");
    if (mode_ == Scheduler::kHeapReference) {
      push_ref(now_ + delay, std::function<void()>(std::forward<F>(fn)));
      return;
    }
    EventNode* n = acquire_node(now_ + delay);
    n->fn.emplace(std::forward<F>(fn));
    if (n->fn.on_heap()) ++heap_callables_;
    enqueue(n);
  }

  /// Schedule a callback at absolute simulated time `at`. A non-future `at`
  /// is clamped to now and fires on the current tick — never dropped. The
  /// form fault-injection scripts use: "link X dies at t = 40 µs".
  ///
  /// Clamp ordering contract: clamped events fire after the currently
  /// running event completes, in the order they were scheduled — exactly the
  /// (time, insertion-sequence) rule with time == now. Two events clamped on
  /// the same tick therefore fire in insertion (FIFO) order; they never
  /// preempt, reorder, or jump ahead of already-queued events at now.
  template <typename F>
  void schedule_at(Picoseconds at, F&& fn) {
    schedule(at > now() ? at - now() : Picoseconds{0}, std::forward<F>(fn));
  }

  /// Resume a suspended coroutine `delay` after the current time. On the
  /// calendar scheduler this is a fast path: the event carries the coroutine
  /// handle directly, with no callable wrapper at all.
  void schedule_resume(Picoseconds delay, std::coroutine_handle<> h);

  /// Schedule a cancellable callback `delay` after the current time. The
  /// returned handle stays valid to cancel() until the timer fires; handles
  /// to fired timers are detectably stale and safe to cancel (no-op).
  template <typename F>
  TimerHandle schedule_timer(Picoseconds delay, F&& fn) {
    TCC_ASSERT(delay >= Picoseconds::zero(), "cannot schedule into the past");
    ++timers_scheduled_;
    EventNode* n = acquire_node(now_ + delay);
    n->timer_id = next_timer_id_++;
    n->fn.emplace(std::forward<F>(fn));
    if (n->fn.on_heap()) ++heap_callables_;
    const TimerHandle h(n, n->timer_id);
    if (mode_ == Scheduler::kHeapReference) {
      push_ref_node(n);
    } else {
      enqueue(n);
    }
    return h;
  }

  /// schedule_timer at an absolute time, with the same past-clamps-to-now
  /// semantics as schedule_at.
  template <typename F>
  TimerHandle schedule_timer_at(Picoseconds at, F&& fn) {
    return schedule_timer(at > now() ? at - now() : Picoseconds{0},
                          std::forward<F>(fn));
  }

  /// Cancel a pending timer. Returns true if the timer was still pending
  /// (its callback will never run); false if it already fired, was already
  /// cancelled, or the handle was never armed. Cancelling on the same tick
  /// the timer would fire works iff the cancelling event dispatches first
  /// (lower insertion sequence). The handle is reset either way.
  bool cancel(TimerHandle& h);

  /// Cut short a sleep_for() suspension: cancels the underlying timer and
  /// resumes the sleeper on the current tick (after the running event).
  /// Returns false (no-op) if the sleeper already woke or isn't sleeping.
  bool wake(TimerHandle& h);

  /// Launch a top-level simulated process. The engine owns the coroutine
  /// frame until it completes; completed frames are reclaimed during run(),
  /// and an exception that escaped a process is rethrown from run().
  ///
  /// CAUTION: do not pass the result of invoking a capturing lambda
  /// coroutine — the lambda object dies at the end of the full expression
  /// and its captures dangle. Use spawn_fn for lambdas.
  void spawn(Task<void> task);

  /// Launch a callable returning Task<void>. The callable is moved into a
  /// wrapper coroutine frame, so capturing lambdas are safe here.
  template <typename F>
  void spawn_fn(F fn) {
    spawn(invoke_owned(std::move(fn)));
  }

  /// Convenience awaitable: `co_await engine.delay(ns(50))`.
  [[nodiscard]] DelayAwaiter delay(Picoseconds d) { return DelayAwaiter{*this, d}; }

  /// Cancellable sleep: `co_await engine.sleep_for(interval, slot_)`. The
  /// timer handle is parked in `slot` for the duration of the suspension so
  /// another process can end the sleep early with wake(slot). Used by
  /// periodic processes (keepalive) so stopping them doesn't leave a dead
  /// wakeup event pinning the queue.
  [[nodiscard]] SleepAwaiter sleep_for(Picoseconds d, TimerHandle& slot) {
    return SleepAwaiter{*this, d, slot};
  }

  /// Run until the event queue drains. Returns the final simulated time.
  Picoseconds run();

  /// Run until the queue drains or simulated time would exceed `deadline`.
  Picoseconds run_until(Picoseconds deadline);

  /// Number of events processed so far (for tests / debugging). Cancelled
  /// timers on the calendar scheduler are skipped, not processed; on the
  /// heap reference they dispatch as dead no-ops (the pre-calendar cost
  /// model) and do count.
  [[nodiscard]] std::uint64_t events_processed() const { return events_processed_; }

  /// True if every spawned process has run to completion.
  [[nodiscard]] bool all_processes_done() const;

  /// Scheduler internals counters (plain members, available with telemetry
  /// compiled out; mirrored into sim.engine.* metrics once per run).
  struct Stats {
    std::uint64_t timers_scheduled = 0;
    std::uint64_t timers_cancelled = 0;
    std::uint64_t callable_heap_allocs = 0;  ///< captures too big for InlineFn
    std::int64_t skip_ahead_ps = 0;  ///< sim time jumped over empty buckets
    std::size_t peak_queue_depth = 0;
    std::size_t queue_depth = 0;  ///< live (non-cancelled) pending events
  };
  [[nodiscard]] Stats stats() const;

 private:
  friend class SleepAwaiter;
  friend void detail::note_finished(Engine& engine, std::coroutine_handle<> h);

  template <typename F>
  static Task<void> invoke_owned(F fn) {
    co_await fn();
  }

  // ---- shared node plumbing (calendar + timers in both modes) ----
  EventNode* acquire_node(Picoseconds at);
  void release_node(EventNode* n);
  void do_cancel(EventNode* n);
  TimerHandle schedule_resume_timer(Picoseconds delay, std::coroutine_handle<> h);

  // ---- calendar scheduler ----
  void enqueue(EventNode* n);
  void bucket_insert(EventNode* n);
  EventNode* pop_calendar(Picoseconds deadline);
  EventNode* pop_raw(Picoseconds deadline);
  void activate_bucket(std::size_t p);
  void demote_run();
  void rebase_window(std::int64_t at);
  void advance_window();
  void maybe_resize();
  [[nodiscard]] std::size_t next_occupied(std::size_t from_p) const;
  Picoseconds run_calendar(Picoseconds deadline);

  // ---- heap reference scheduler (pre-calendar implementation) ----
  struct RefEvent {
    Picoseconds at;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct RefEventOrder {
    bool operator()(const RefEvent& a, const RefEvent& b) const {
      if (a.at != b.at) return a.at > b.at;  // min-heap by time
      return a.seq > b.seq;                  // FIFO among simultaneous events
    }
  };
  void push_ref(Picoseconds at, std::function<void()> fn);
  void push_ref_node(EventNode* n);
  void fire_ref_node(EventNode* n);
  Picoseconds run_heap(Picoseconds deadline);

  void reap_finished();
  void note_depth(std::size_t d) {
    if (d > peak_depth_) peak_depth_ = d;
  }

  // Overflow-heap entry: the (at, seq) key is copied inline so heap sifts
  // compare against the contiguous heap array instead of dereferencing node
  // pointers (a cache miss per comparison once the overflow holds thousands
  // of parked timers). Keys never go stale: a node's at/seq are fixed from
  // enqueue until release, and cancel() only marks the node.
  struct OverflowEntry {
    std::int64_t at;
    std::uint64_t seq;
    EventNode* node;
  };
  // Min by (at, seq), same contract as RefEventOrder.
  struct NodeOrder {
    bool operator()(const OverflowEntry& a, const OverflowEntry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  Scheduler mode_;
  Picoseconds now_ = Picoseconds::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t next_timer_id_ = 1;
  std::uint64_t timers_scheduled_ = 0;
  std::uint64_t timers_cancelled_ = 0;
  std::uint64_t heap_callables_ = 0;
  std::int64_t skip_ahead_ps_ = 0;
  std::size_t live_ = 0;
  std::size_t peak_depth_ = 0;
  std::int64_t ema_delta_ps_;  // EMA of inter-dispatch deltas, sizes buckets

  // Node slabs + freelist. Declared before every queue so queue destructors
  // (which may release nodes) run while the slabs are still alive; the slab
  // arrays' own destructors then destroy any still-pending InlineFn.
  std::vector<std::unique_ptr<EventNode[]>> slabs_;
  EventNode* free_list_ = nullptr;

  // Calendar state: buckets cover [window_start_, window_end_) in
  // (1 << shift_)-ps slices; bucket for time t is (t >> shift_) & mask_.
  int shift_;
  std::size_t bucket_count_;
  std::size_t mask_;
  std::int64_t window_start_ = 0;
  std::int64_t window_end_ = 0;
  std::int64_t covered_to_ = 0;  // end of the last activated bucket (skip stat)
  std::size_t bucket_events_ = 0;
  std::vector<EventNode*> buckets_;  // intrusive chains through next_free
  std::vector<std::uint64_t> occupied_;  // one bit per bucket
  std::vector<EventNode*> run_;          // active bucket, sorted by (at, seq)
  std::size_t run_pos_ = 0;
  bool run_active_ = false;
  bool reinsert_before_run_ = false;  // paused-run insert landed before run_
  std::int64_t run_lo_ = 0, run_hi_ = 0;  // time range of the active bucket
  // Zero-delay events, FIFO: an index-fronted vector (contiguous, no deque
  // block indirection); storage resets whenever the queue drains.
  std::vector<EventNode*> now_queue_;
  std::size_t now_pos_ = 0;
  std::vector<OverflowEntry> overflow_;   // min-heap, events >= window_end_

  std::priority_queue<RefEvent, std::vector<RefEvent>, RefEventOrder> ref_queue_;

  // Live processes in spawn order; a reaped process leaves a null slot that
  // compaction removes once slots outnumber live processes. finished_ holds
  // the processes that completed since the last reap, in completion order.
  using ProcessHandle = std::coroutine_handle<detail::Promise<void>>;
  std::vector<ProcessHandle> processes_;
  std::size_t vacant_slots_ = 0;
  std::vector<ProcessHandle> finished_;
};

/// A broadcast notification processes can wait on (akin to a SystemC event).
/// notify() wakes all current waiters at the current simulated time; waiters
/// that subscribe after the notify wait for the next one.
class Trigger {
 public:
  explicit Trigger(Engine& engine) : engine_(engine) {}
  Trigger(const Trigger&) = delete;
  Trigger& operator=(const Trigger&) = delete;

  class Awaiter {
   public:
    explicit Awaiter(Trigger& t) : trigger_(t) {}
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { trigger_.waiters_.push_back(h); }
    void await_resume() const noexcept {}

   private:
    Trigger& trigger_;
  };

  [[nodiscard]] Awaiter wait() { return Awaiter{*this}; }

  /// Wake all waiters registered at this moment.
  void notify();

  [[nodiscard]] std::size_t waiter_count() const { return waiters_.size(); }
  [[nodiscard]] Engine& engine() { return engine_; }

 private:
  Engine& engine_;
  std::vector<std::coroutine_handle<>> waiters_;
  std::vector<std::coroutine_handle<>> waking_;  // notify()'s scratch; keeps its capacity
};

/// Unbounded typed FIFO between simulated processes; pop() suspends while
/// empty. Exactly one value is handed to exactly one popper (FIFO order).
template <typename T>
class Channel {
 public:
  explicit Channel(Engine& engine) : trigger_(engine) {}

  void push(T value) {
    items_.push_back(std::move(value));
    trigger_.notify();
  }

  [[nodiscard]] Task<T> pop() {
    while (items_.empty()) {
      co_await trigger_.wait();
    }
    T v = std::move(items_.front());
    items_.erase(items_.begin());
    co_return v;
  }

  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }

 private:
  Trigger trigger_;
  std::vector<T> items_;
};

}  // namespace tcc::sim
