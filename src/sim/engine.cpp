#include "sim/engine.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <limits>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"

namespace tcc::sim {

namespace {

// Calendar geometry bounds. Bucket width is (1 << shift) picoseconds, resized
// from the EMA of inter-dispatch deltas; bucket count tracks the overflow
// population so the steady state is O(1) events per bucket.
constexpr int kMinShift = 6;    // 64 ps
constexpr int kMaxShift = 30;   // ~1.07 ms
constexpr int kInitShift = 11;  // 2048 ps ~ 2 ns
constexpr std::size_t kMinBuckets = 64;
constexpr std::size_t kMaxBuckets = 65536;
constexpr std::size_t kInitBuckets = 256;
constexpr std::size_t kSlabNodes = 256;
// Idle gaps would otherwise drag the width EMA toward uselessly huge buckets.
constexpr std::int64_t kDeltaCap = std::int64_t{1} << 20;  // ~1 us
// Below this overflow population (with empty buckets) events are dispatched
// straight from the overflow heap instead of migrating windows.
constexpr std::size_t kSparseOverflow = 32;

std::int64_t sat_add(std::int64_t a, std::int64_t b) {
  return a > std::numeric_limits<std::int64_t>::max() - b
             ? std::numeric_limits<std::int64_t>::max()
             : a + b;
}

// Strict (time, insertion-sequence) order for sorting bucket runs.
struct NodeLess {
  bool operator()(const EventNode* a, const EventNode* b) const {
    if (a->at != b->at) return a->at < b->at;
    return a->seq < b->seq;
  }
};

}  // namespace

#if TCC_TELEMETRY_ENABLED
namespace {

/// Handle cache for the engine's metrics (see docs/OBSERVABILITY.md). One
/// registry lookup per process, then plain pointer increments.
struct EngineMetrics {
  telemetry::Counter& events = telemetry::MetricsRegistry::global().counter(
      "sim.engine.events_processed");
  telemetry::Counter& spawns = telemetry::MetricsRegistry::global().counter(
      "sim.engine.processes_spawned");
  telemetry::Counter& runs =
      telemetry::MetricsRegistry::global().counter("sim.engine.run_calls");
  telemetry::Counter& timers_cancelled = telemetry::MetricsRegistry::global().counter(
      "sim.engine.timers_cancelled");
  telemetry::Counter& heap_allocs = telemetry::MetricsRegistry::global().counter(
      "sim.engine.callable_heap_allocs");
  telemetry::Counter& skip_ahead_ns = telemetry::MetricsRegistry::global().counter(
      "sim.engine.skip_ahead_ns");
  telemetry::Gauge& wall_seconds = telemetry::MetricsRegistry::global().gauge(
      "sim.engine.wall_seconds");
  telemetry::Gauge& sim_seconds = telemetry::MetricsRegistry::global().gauge(
      "sim.engine.sim_seconds");
  telemetry::Gauge& queue_depth_peak = telemetry::MetricsRegistry::global().gauge(
      "sim.engine.queue_depth_peak");
  telemetry::Histogram& queue_depth = telemetry::MetricsRegistry::global().histogram(
      "sim.engine.queue_depth");
  telemetry::Histogram& bucket_occupancy =
      telemetry::MetricsRegistry::global().histogram("sim.engine.bucket_occupancy");
};

EngineMetrics& engine_metrics() {
  static EngineMetrics m;
  return m;
}

}  // namespace
#endif  // TCC_TELEMETRY_ENABLED

// ---------------------------------------------------------------------------
// Coroutine frame freelists (fast paths inline in sim/task.hpp)
// ---------------------------------------------------------------------------

namespace detail {
namespace {

// Destroyed at thread exit: hands every parked frame back to the heap and
// closes the lists, so the pool holds nothing a leak checker could report.
struct FrameDrain {
  FrameDrain() = default;
  FrameDrain(const FrameDrain&) = delete;
  FrameDrain& operator=(const FrameDrain&) = delete;
  ~FrameDrain() {
    FrameFreelists& fl = frame_freelists;
    fl.state = FrameFreelists::State::kClosed;
    for (std::size_t cls = 0; cls < kFrameClasses; ++cls) {
      while (void* p = fl.head[cls]) {
        ASAN_UNPOISON_MEMORY_REGION(p, (cls + 1) * kFrameGrain);
        fl.head[cls] = *static_cast<void**>(p);
        ::operator delete(p);
      }
    }
  }
};

}  // namespace

void* new_frame(std::size_t cls) {
  if (frame_freelists.state == FrameFreelists::State::kUnarmed) {
    thread_local FrameDrain drain;  // registers the thread-exit drain
    frame_freelists.state = FrameFreelists::State::kArmed;
  }
  return ::operator new((cls + 1) * kFrameGrain);
}

}  // namespace detail

void DelayAwaiter::await_suspend(std::coroutine_handle<> h) {
  engine_.schedule_resume(duration_, h);
}

void SleepAwaiter::await_suspend(std::coroutine_handle<> h) {
  slot_ = engine_.schedule_resume_timer(duration_, h);
}

Engine::Engine(Scheduler scheduler)
    : mode_(scheduler),
      ema_delta_ps_(std::int64_t{1} << kInitShift),
      shift_(kInitShift),
      bucket_count_(kInitBuckets),
      mask_(kInitBuckets - 1) {
  buckets_.assign(bucket_count_, nullptr);
  occupied_.assign((bucket_count_ + 63) / 64, 0);
  window_end_ = static_cast<std::int64_t>(bucket_count_) << shift_;
}

Engine::~Engine() {
  for (auto h : processes_) {
    if (h) h.destroy();
  }
  // Pending events need no explicit drain: nodes live in slabs_, whose array
  // destructors run the InlineFn destructors; heap-reference timer wrappers
  // release their nodes when ref_queue_ is destroyed (slabs_ outlives it).
}

// ---------------------------------------------------------------------------
// Node slab + freelist
// ---------------------------------------------------------------------------

EventNode* Engine::acquire_node(Picoseconds at) {
  EventNode* n = free_list_;
  if (n != nullptr) {
    free_list_ = n->next_free;
  } else {
    auto slab = std::make_unique<EventNode[]>(kSlabNodes);
    n = slab.get();
    for (std::size_t i = 1; i < kSlabNodes; ++i) {
      slab[i].next_free = free_list_;
      free_list_ = &slab[i];
    }
    slabs_.push_back(std::move(slab));
  }
  n->at = at;
  n->seq = next_seq_++;
  n->timer_id = 0;
  n->kind = EventNode::Kind::kCallable;
  n->next_free = nullptr;
  return n;
}

void Engine::release_node(EventNode* n) {
  n->fn.reset();
  n->resume = nullptr;
  n->timer_id = 0;
  n->kind = EventNode::Kind::kCallable;
  n->next_free = free_list_;
  free_list_ = n;
}

// ---------------------------------------------------------------------------
// Scheduling entry points
// ---------------------------------------------------------------------------

void Engine::schedule_resume(Picoseconds delay, std::coroutine_handle<> h) {
  TCC_ASSERT(delay >= Picoseconds::zero(), "cannot schedule into the past");
  if (mode_ == Scheduler::kHeapReference) {
    push_ref(now_ + delay, [h] { h.resume(); });
    return;
  }
  EventNode* n = acquire_node(now_ + delay);
  n->kind = EventNode::Kind::kResume;
  n->resume = h;
  enqueue(n);
}

TimerHandle Engine::schedule_resume_timer(Picoseconds delay, std::coroutine_handle<> h) {
  TCC_ASSERT(delay >= Picoseconds::zero(), "cannot schedule into the past");
  ++timers_scheduled_;
  EventNode* n = acquire_node(now_ + delay);
  n->kind = EventNode::Kind::kResume;
  n->resume = h;
  n->timer_id = next_timer_id_++;
  const TimerHandle th(n, n->timer_id);
  if (mode_ == Scheduler::kHeapReference) {
    push_ref_node(n);
  } else {
    enqueue(n);
  }
  return th;
}

bool Engine::cancel(TimerHandle& h) {
  EventNode* n = h.node_;
  const std::uint64_t id = h.id_;
  h.reset();
  if (n == nullptr || id == 0 || n->timer_id != id) return false;  // stale
  do_cancel(n);
  return true;
}

bool Engine::wake(TimerHandle& h) {
  EventNode* n = h.node_;
  const std::uint64_t id = h.id_;
  h.reset();
  if (n == nullptr || id == 0 || n->timer_id != id) return false;  // not asleep
  TCC_ASSERT(n->kind == EventNode::Kind::kResume, "wake() targets sleep_for timers");
  const std::coroutine_handle<> co = n->resume;
  do_cancel(n);
  schedule_resume(Picoseconds::zero(), co);
  return true;
}

void Engine::do_cancel(EventNode* n) {
  n->timer_id = 0;
  n->kind = EventNode::Kind::kCancelled;
  n->fn.reset();
  n->resume = nullptr;
  ++timers_cancelled_;
  // The node stays queued and is recycled when its slot is reached. On the
  // calendar scheduler that skip is free (no dispatch, no time advance); on
  // the heap reference the wrapper still pops as a dead no-op event — the
  // pre-calendar cost model this mode exists to preserve.
  if (mode_ == Scheduler::kCalendar) --live_;
}

void Engine::spawn(Task<void> task) {
  auto handle = task.release();
  TCC_ASSERT(handle != nullptr, "spawn of an empty task");
  handle.promise().owner = this;
  handle.promise().process_slot = processes_.size();
  processes_.push_back(handle);
  TCC_METRIC(engine_metrics().spawns.inc());
  // Start the process as an event so that spawning inside a running process
  // keeps deterministic ordering.
  schedule_resume(Picoseconds::zero(), handle);
}

// ---------------------------------------------------------------------------
// Calendar scheduler
// ---------------------------------------------------------------------------

void Engine::enqueue(EventNode* n) {
  ++live_;
  note_depth(live_);
  const std::int64_t at = n->at.count();
  if (n->at == now_) {
    // Zero-delay fast path. A new event always carries the globally largest
    // sequence number, so FIFO order here IS (time, insertion-seq) order.
    now_queue_.push_back(n);
    return;
  }
  if (at < window_start_) rebase_window(at);
  if (at < window_end_) {
    if (run_active_) {
      if (at >= run_lo_ && at < run_hi_) {
        // Belongs to the active bucket: keep the run sorted. New seq is the
        // global max, so ordering by time alone places it correctly.
        auto it = std::upper_bound(run_.begin() + static_cast<std::ptrdiff_t>(run_pos_),
                                   run_.end(), n, NodeLess{});
        run_.insert(it, n);
        return;
      }
      // Landed before the active bucket (only reachable when a run paused at
      // a deadline before dispatching from a freshly activated bucket). Flag
      // it; the next pop demotes the run and rescans from now_.
      if (at < run_lo_) reinsert_before_run_ = true;
    }
    bucket_insert(n);
    return;
  }
  overflow_.push_back(OverflowEntry{at, n->seq, n});
  std::push_heap(overflow_.begin(), overflow_.end(), NodeOrder{});
}

void Engine::bucket_insert(EventNode* n) {
  // Buckets are intrusive singly-linked stacks threaded through next_free (a
  // queued node is never on the freelist, so the pointer is unused there).
  // Insertion order inside a bucket is irrelevant: activation sorts.
  const std::size_t p = static_cast<std::size_t>(n->at.count() >> shift_) & mask_;
  n->next_free = buckets_[p];
  buckets_[p] = n;
  occupied_[p >> 6] |= std::uint64_t{1} << (p & 63);
  ++bucket_events_;
}

std::size_t Engine::next_occupied(std::size_t from_p) const {
  std::size_t w = from_p >> 6;
  const std::size_t nwords = occupied_.size();
  std::uint64_t word = occupied_[w] & (~std::uint64_t{0} << (from_p & 63));
  for (;;) {  // caller guarantees bucket_events_ > 0
    if (word != 0) {
      return (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
    }
    w = (w + 1) % nwords;
    word = occupied_[w];
  }
}

void Engine::activate_bucket(std::size_t p) {
  occupied_[p >> 6] &= ~(std::uint64_t{1} << (p & 63));
  run_.clear();
  std::size_t drained = 0;
  for (EventNode* n = buckets_[p]; n != nullptr;) {
    EventNode* next = n->next_free;
    n->next_free = nullptr;
    ++drained;
    if (n->kind == EventNode::Kind::kCancelled) {
      // Reclaim timers cancelled while parked here, before paying to sort.
      release_node(n);
    } else {
      run_.push_back(n);
    }
    n = next;
  }
  buckets_[p] = nullptr;
  bucket_events_ -= drained;
  if (run_.empty()) return;  // caller's pop loop rescans
  std::sort(run_.begin(), run_.end(), NodeLess{});
  run_pos_ = 0;
  run_active_ = true;
  const std::int64_t width = std::int64_t{1} << shift_;
  run_lo_ = run_.front()->at.count() & ~(width - 1);
  run_hi_ = run_lo_ + width;
  if (run_lo_ > covered_to_) skip_ahead_ps_ += run_lo_ - covered_to_;
  if (run_hi_ > covered_to_) covered_to_ = run_hi_;
  TCC_METRIC(engine_metrics().bucket_occupancy.add(static_cast<double>(run_.size())));
}

void Engine::demote_run() {
  // A paused-run insert landed before the active bucket: push the run's
  // remainder back (everything left has at > now_) and rescan from now_.
  if (run_pos_ < run_.size()) {
    const std::size_t p =
        static_cast<std::size_t>(run_[run_pos_]->at.count() >> shift_) & mask_;
    for (std::size_t i = run_pos_; i < run_.size(); ++i) {
      run_[i]->next_free = buckets_[p];
      buckets_[p] = run_[i];
    }
    occupied_[p >> 6] |= std::uint64_t{1} << (p & 63);
    bucket_events_ += run_.size() - run_pos_;
  }
  run_.clear();
  run_pos_ = 0;
  run_active_ = false;
  reinsert_before_run_ = false;
}

void Engine::rebase_window(std::int64_t at) {
  // An insert landed before the window itself (only reachable while paused
  // between run_until calls, after a migration parked the window beyond
  // now_). Demote everything back to the overflow heap and restart the
  // window at the new event. Rare, so O(pending) is fine.
  if (run_active_) {
    for (std::size_t i = run_pos_; i < run_.size(); ++i) {
      overflow_.push_back(OverflowEntry{run_[i]->at.count(), run_[i]->seq, run_[i]});
    }
    run_.clear();
    run_pos_ = 0;
    run_active_ = false;
  }
  if (bucket_events_ > 0) {
    for (auto& b : buckets_) {
      for (EventNode* n = b; n != nullptr;) {
        EventNode* next = n->next_free;
        n->next_free = nullptr;
        overflow_.push_back(OverflowEntry{n->at.count(), n->seq, n});
        n = next;
      }
      b = nullptr;
    }
    std::fill(occupied_.begin(), occupied_.end(), 0);
    bucket_events_ = 0;
  }
  std::make_heap(overflow_.begin(), overflow_.end(), NodeOrder{});
  reinsert_before_run_ = false;
  const std::int64_t width = std::int64_t{1} << shift_;
  window_start_ = at & ~(width - 1);
  window_end_ = sat_add(window_start_, static_cast<std::int64_t>(bucket_count_) << shift_);
  if (!overflow_.empty()) {
    // Every overflow event must stay >= window_end_ so buckets always
    // dispatch first; clamp the window short of the earliest demoted event.
    const std::int64_t top_lo = overflow_.front().at & ~(width - 1);
    window_end_ = std::min(window_end_, top_lo);
  }
}

void Engine::advance_window() {
  maybe_resize();  // buckets are empty here, so geometry may change freely
  const std::int64_t width = std::int64_t{1} << shift_;
  window_start_ = overflow_.front().at & ~(width - 1);
  window_end_ = sat_add(window_start_, static_cast<std::int64_t>(bucket_count_) << shift_);
  if (window_start_ > covered_to_) {
    skip_ahead_ps_ += window_start_ - covered_to_;
    covered_to_ = window_start_;
  }
  // Batch-migrate everything the new window covers: one linear partition
  // plus one make_heap of the remainder beats per-entry pop_heap sifts once
  // the overflow holds thousands of parked timers.
  const std::int64_t we = window_end_;
  const auto mid = std::partition(overflow_.begin(), overflow_.end(),
                                  [we](const OverflowEntry& e) { return e.at >= we; });
  for (auto it = mid; it != overflow_.end(); ++it) {
    EventNode* n = it->node;
    // Timers cancelled while parked in the overflow are reclaimed here
    // instead of riding through bucket sort and dispatch skip.
    if (n->kind == EventNode::Kind::kCancelled) {
      release_node(n);
    } else {
      bucket_insert(n);
    }
  }
  overflow_.erase(mid, overflow_.end());
  std::make_heap(overflow_.begin(), overflow_.end(), NodeOrder{});
}

void Engine::maybe_resize() {
  const std::size_t pending = overflow_.size();
  std::size_t want = kMinBuckets;
  while (want < pending && want < kMaxBuckets) want <<= 1;
  std::size_t new_count = bucket_count_;
  if (want > bucket_count_) {
    new_count = want;  // grow eagerly
  } else if (want * 4 <= bucket_count_) {
    new_count = std::max(want, kMinBuckets);  // shrink with 4x hysteresis
  }
  // Bucket width ~ the observed mean inter-dispatch delta, rounded up to a
  // power of two. Both inputs are pure simulation state, so resizing is as
  // deterministic as the event order itself.
  const auto delta = static_cast<std::uint64_t>(std::max<std::int64_t>(ema_delta_ps_, 1));
  const int new_shift = std::clamp(static_cast<int>(std::bit_width(delta)) + 2,
                                   kMinShift, kMaxShift);
  if (new_count != bucket_count_ || new_shift != shift_) {
    TCC_ASSERT(bucket_events_ == 0, "calendar resize with occupied buckets");
    bucket_count_ = new_count;
    mask_ = bucket_count_ - 1;
    shift_ = new_shift;
    buckets_.assign(bucket_count_, nullptr);
    occupied_.assign((bucket_count_ + 63) / 64, 0);
  }
}

EventNode* Engine::pop_raw(Picoseconds deadline) {
  for (;;) {
    // (1) Remainder of the current tick, in insertion order: run entries at
    // now_ predate every now_queue_ entry (those were created at now_), so
    // run-first IS global (time, seq) order.
    if (run_active_ && run_pos_ < run_.size() && run_[run_pos_]->at == now_) {
      if (now_ > deadline) return nullptr;
      return run_[run_pos_++];
    }
    if (now_pos_ < now_queue_.size()) {
      EventNode* n = now_queue_[now_pos_];
      TCC_ASSERT(n->at == now_, "stale zero-delay event");
      if (n->at > deadline) return nullptr;
      if (++now_pos_ == now_queue_.size()) {
        now_queue_.clear();
        now_pos_ = 0;
      }
      return n;
    }
    // (2) A paused-run insert landed before the active bucket.
    if (reinsert_before_run_) {
      demote_run();
      continue;
    }
    // (3) Next future event in the active bucket.
    if (run_active_) {
      if (run_pos_ < run_.size()) {
        EventNode* n = run_[run_pos_];
        if (n->at > deadline) return nullptr;
        ++run_pos_;
        return n;
      }
      run_.clear();
      run_pos_ = 0;
      run_active_ = false;
    }
    // (4) Skip ahead to the next occupied bucket in the window.
    if (bucket_events_ > 0) {
      const std::int64_t from = std::max(now_.count(), window_start_);
      activate_bucket(next_occupied(static_cast<std::size_t>(from >> shift_) & mask_));
      continue;
    }
    // (5) Sparse fast path: with every bucket empty and only a handful of
    // events parked, windowing is pure overhead — serve straight from the
    // overflow heap ((at, seq) keyed, so dispatch order is unchanged).
    if (overflow_.empty()) return nullptr;
    if (overflow_.size() <= kSparseOverflow) {
      if (Picoseconds{overflow_.front().at} > deadline) return nullptr;
      std::pop_heap(overflow_.begin(), overflow_.end(), NodeOrder{});
      EventNode* n = overflow_.back().node;
      overflow_.pop_back();
      if (n->kind == EventNode::Kind::kCancelled) {
        release_node(n);
        continue;
      }
      const std::int64_t at = n->at.count();
      if (at > covered_to_) {
        skip_ahead_ps_ += at - covered_to_;
        covered_to_ = at;
      }
      return n;
    }
    advance_window();
  }
}

EventNode* Engine::pop_calendar(Picoseconds deadline) {
  for (;;) {
    EventNode* n = pop_raw(deadline);
    if (n == nullptr) return nullptr;
    if (n->kind == EventNode::Kind::kCancelled) {
      release_node(n);  // skipped: no dispatch, no time advance, no count
      continue;
    }
    return n;
  }
}

Picoseconds Engine::run_calendar(Picoseconds deadline) {
  while (EventNode* n = pop_calendar(deadline)) {
    TCC_ASSERT(n->at >= now_, "event queue went backwards in time");
    const std::int64_t delta = (n->at - now_).count();
    ema_delta_ps_ += (std::min(delta, kDeltaCap) - ema_delta_ps_) >> 4;
    now_ = n->at;
    ++events_processed_;
    --live_;
    if (n->kind == EventNode::Kind::kResume) {
      const std::coroutine_handle<> h = n->resume;
      release_node(n);
      h.resume();
    } else {
      n->timer_id = 0;
      // Invoke in place: the node is off every queue but not yet on the
      // freelist, so reentrant schedule() calls cannot recycle it mid-call,
      // and we skip relocating the callable's storage.
      n->fn();
      release_node(n);
    }
    if (events_processed_ % 4096 == 0) {
      TCC_METRIC(engine_metrics().queue_depth.add(static_cast<double>(live_)));
      reap_finished();
    }
  }
  return now_;
}

// ---------------------------------------------------------------------------
// Heap reference scheduler — the pre-calendar implementation, kept faithful
// (std::function per event, dead no-op dispatch of cancelled timers) so the
// determinism suite can diff timelines and bench/sim_throughput can report
// an honest speedup.
// ---------------------------------------------------------------------------

void Engine::push_ref(Picoseconds at, std::function<void()> fn) {
  ref_queue_.push(RefEvent{at, next_seq_++, std::move(fn)});
  note_depth(ref_queue_.size());
}

void Engine::push_ref_node(EventNode* n) {
  // The shared_ptr guard returns the node to the freelist when the wrapper
  // dies — after firing, or with the queue if the engine is destroyed first.
  std::shared_ptr<EventNode> guard(n, [this](EventNode* p) { release_node(p); });
  ref_queue_.push(RefEvent{n->at, n->seq, [this, guard] { fire_ref_node(guard.get()); }});
  note_depth(ref_queue_.size());
}

void Engine::fire_ref_node(EventNode* n) {
  if (n->kind == EventNode::Kind::kCancelled) return;  // dead no-op event
  n->timer_id = 0;
  if (n->kind == EventNode::Kind::kResume) {
    const std::coroutine_handle<> h = n->resume;
    n->resume = nullptr;
    h.resume();
    return;
  }
  InlineFn fn = std::move(n->fn);
  fn();
}

Picoseconds Engine::run_heap(Picoseconds deadline) {
  while (!ref_queue_.empty()) {
    const RefEvent& top = ref_queue_.top();
    if (top.at > deadline) break;
    // Copy out before pop: the callback may push new events.
    RefEvent ev{top.at, top.seq, std::move(const_cast<RefEvent&>(top).fn)};
    ref_queue_.pop();
    TCC_ASSERT(ev.at >= now_, "event queue went backwards in time");
    now_ = ev.at;
    ++events_processed_;
    ev.fn();
    if (events_processed_ % 4096 == 0) {
      TCC_METRIC(engine_metrics().queue_depth.add(static_cast<double>(ref_queue_.size())));
      reap_finished();
    }
  }
  return now_;
}

// ---------------------------------------------------------------------------
// Run loop
// ---------------------------------------------------------------------------

Picoseconds Engine::run() { return run_until(Picoseconds::max()); }

Picoseconds Engine::run_until(Picoseconds deadline) {
#if TCC_TELEMETRY_ENABLED
  const std::uint64_t events_at_entry = events_processed_;
  const std::uint64_t cancelled_at_entry = timers_cancelled_;
  const std::uint64_t heap_at_entry = heap_callables_;
  const std::int64_t skip_at_entry = skip_ahead_ps_;
  const Picoseconds sim_at_entry = now_;
  const auto wall_start = std::chrono::steady_clock::now();
#endif
  if (mode_ == Scheduler::kHeapReference) {
    run_heap(deadline);
  } else {
    run_calendar(deadline);
  }
  reap_finished();
#if TCC_TELEMETRY_ENABLED
  // Telemetry is recorded once per run, off the per-event hot path: event
  // throughput, scheduler health (cancels, skip-ahead, depth peak, captures
  // that fell off the inline fast path), plus the cumulative wall/sim clocks
  // whose ratio is the simulator's slowdown factor.
  auto& m = engine_metrics();
  m.runs.inc();
  m.events.inc(events_processed_ - events_at_entry);
  m.timers_cancelled.inc(timers_cancelled_ - cancelled_at_entry);
  m.heap_allocs.inc(heap_callables_ - heap_at_entry);
  m.skip_ahead_ns.inc(static_cast<std::uint64_t>((skip_ahead_ps_ - skip_at_entry) / 1000));
  m.queue_depth_peak.set(static_cast<double>(peak_depth_));
  m.sim_seconds.add((now_ - sim_at_entry).seconds());
  m.wall_seconds.add(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count());
#endif
  return now_;
}

Engine::Stats Engine::stats() const {
  Stats s;
  s.timers_scheduled = timers_scheduled_;
  s.timers_cancelled = timers_cancelled_;
  s.callable_heap_allocs = heap_callables_;
  s.skip_ahead_ps = skip_ahead_ps_;
  s.peak_queue_depth = peak_depth_;
  s.queue_depth = mode_ == Scheduler::kHeapReference ? ref_queue_.size() : live_;
  return s;
}

bool Engine::all_processes_done() const {
  return std::all_of(processes_.begin(), processes_.end(),
                     [](auto h) { return !h || h.done(); });
}

void Engine::reap_finished() {
  // Visits only the processes whose final awaiter reported in: the cost is
  // per finished process, not per live one.
  std::exception_ptr failure;
  for (const ProcessHandle h : finished_) {
    processes_[h.promise().process_slot] = nullptr;
    ++vacant_slots_;
    if (!failure) failure = h.promise().exception;
    h.destroy();
  }
  finished_.clear();
  if (2 * vacant_slots_ > processes_.size()) {
    std::erase(processes_, nullptr);
    for (std::size_t i = 0; i < processes_.size(); ++i) processes_[i].promise().process_slot = i;
    vacant_slots_ = 0;
  }
  if (failure) std::rethrow_exception(failure);
}

namespace detail {

void note_finished(Engine& engine, std::coroutine_handle<> h) {
  engine.finished_.push_back(Engine::ProcessHandle::from_address(h.address()));
}

}  // namespace detail

void Trigger::notify() {
  // Move the waiter list out first: a resumed process may immediately wait
  // again, and that wait belongs to the *next* notification. Swapping with a
  // member scratch list (emptied again below) keeps both lists' capacity, so
  // a steady wait/notify cycle never reallocates.
  waking_.swap(waiters_);
  for (auto h : waking_) {
    engine_.schedule_resume(Picoseconds::zero(), h);
  }
  waking_.clear();
}

}  // namespace tcc::sim
