// Host-side throughput benchmark of the simulation engine itself: how many
// simulated nanoseconds one wall-clock second buys, on three workload shapes,
// for both event-queue implementations (calendar queue vs. the pre-change
// binary-heap reference). The bench exits 1 when a speedup ratio falls below
// its floor (kMin*Speedup below) — the ratio is a property of the engine, not
// of the machine running the bench.
//
// Workloads (see docs/SIMULATOR.md "Performance model"):
//   micro             dense self-rescheduling events with small captures;
//                     isolates raw scheduler push/pop cost.
//   kv_serving_shaped the event mix of bench/kv_serving: moderate queue
//                     depth, >16-byte captures (std::function heap-allocates
//                     them; InlineFn does not), a deadline timer armed per
//                     request and cancelled on completion, 500 ns pollers,
//                     zero-delay completion notifies, keepalive-style beats.
//   idle_heavy        sparse long timers; exercises bucket skip-ahead.
//
// Output: BENCH_sim_throughput.json (schema in docs/OBSERVABILITY.md).
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string_view>

#include "bench_util.hpp"
#include "sim/engine.hpp"

namespace {

using tcc::Picoseconds;
using tcc::sim::Engine;
using tcc::sim::Scheduler;
using tcc::sim::TimerHandle;

std::uint32_t lcg(std::uint32_t s) { return s * 1664525u + 1013904223u; }

// ---- micro: dense chained events, small captures --------------------------

// 16-byte capture: inline in both std::function and InlineFn, so this
// workload compares pure queue cost, not allocation.
void micro_chain(Engine& eng, std::uint32_t rng, std::int32_t remaining) {
  if (remaining <= 0) return;
  const std::uint32_t s = lcg(rng);
  eng.schedule(Picoseconds{static_cast<std::int64_t>(s % 4096)},
               [&eng, s, remaining] { micro_chain(eng, s, remaining - 1); });
}

void setup_micro(Engine& eng, std::int64_t scale) {
  constexpr int kActors = 64;
  for (int a = 0; a < kActors; ++a) {
    micro_chain(eng, static_cast<std::uint32_t>(a) * 2654435761u,
                static_cast<std::int32_t>(scale));
  }
}

// ---- kv_serving_shaped ----------------------------------------------------

struct KvState {
  Engine& eng;
  std::int64_t target;       // requests to complete
  std::int64_t issued = 0;
  std::int64_t completed = 0;
  std::uint64_t beats = 0;   // keepalive-style counter
  std::uint32_t rng = 0x2545u;
};

// 24-byte payload keeps the hop capture >16 bytes (past std::function's
// inline buffer) but under InlineFn's 64-byte storage.
using KvPayload = std::array<std::uint8_t, 24>;

void kv_hop(KvState& st, KvPayload payload, int hop, TimerHandle deadline) {
  if (hop >= 3) {
    // Request done: disarm the deadline. The heap reference cannot remove
    // the node, so it stays queued as a dead event until its 500 us expiry.
    (void)st.eng.cancel(deadline);
    ++st.completed;
    // Zero-delay completion notifies (response serialization + stats hook).
    st.eng.schedule(Picoseconds{0}, [&st] { ++st.beats; });
    st.eng.schedule(Picoseconds{0}, [&st] { (void)st; });
    return;
  }
  st.rng = lcg(st.rng);
  const Picoseconds d{static_cast<std::int64_t>(50 + st.rng % 300) * 1000};  // 50..350 ns
  st.eng.schedule(d, [&st, payload, hop, deadline] {
    kv_hop(st, payload, hop + 1, deadline);
  });
}

// One client connection: issue, arm the RPC deadline, run the hops, repeat.
// The deadline matches tcsvc::kDefaultCallDeadline (500 us) while requests
// finish in ~1 us, so deadlines are always cancelled. The pre-change engine
// could not remove them: at this aggregate rate it carried a standing
// population of thousands of dead nodes in its heap (deep sifts, cache
// misses) and dispatched every one as a no-op — the cost this workload is
// shaped to expose.
void kv_arrivals(KvState& st, std::uint32_t rng) {
  if (st.issued >= st.target) return;
  ++st.issued;
  KvPayload p{};
  p[0] = static_cast<std::uint8_t>(st.issued);
  TimerHandle deadline =
      st.eng.schedule_timer(Picoseconds::from_us(500.0), [&st] { ++st.beats; });
  kv_hop(st, p, 0, deadline);
  const std::uint32_t s = lcg(rng);
  const Picoseconds gap{static_cast<std::int64_t>(2000 + s % 6000) * 1000};  // 2..8 us
  st.eng.schedule(gap, [&st, s] { kv_arrivals(st, s); });
}

void kv_poller(KvState& st) {
  if (st.completed >= st.target) return;
  st.eng.schedule(Picoseconds::from_ns(500.0), [&st] { kv_poller(st); });
}

void kv_beat(KvState& st) {
  if (st.completed >= st.target) return;
  ++st.beats;
  st.eng.schedule(Picoseconds::from_us(2.0), [&st] { kv_beat(st); });
}

void setup_kv(Engine& eng, KvState& st) {
  constexpr int kClients = 256;
  for (int c = 0; c < kClients; ++c) {
    const auto skew = Picoseconds{static_cast<std::int64_t>(c) * 37 * 1000};
    eng.schedule(skew, [&st, c] {
      kv_arrivals(st, static_cast<std::uint32_t>(c) * 2654435761u + 1u);
    });
  }
  for (int i = 0; i < 8; ++i) {
    eng.schedule(Picoseconds{static_cast<std::int64_t>(i) * 61}, [&st] { kv_poller(st); });
  }
  kv_beat(st);
}

// ---- idle_heavy: sparse long timers --------------------------------------

void idle_chain(Engine& eng, std::uint32_t rng, std::int32_t remaining) {
  if (remaining <= 0) return;
  const std::uint32_t s = lcg(rng);
  // 50..500 us between events: whole calendar windows go by empty.
  const auto d = Picoseconds::from_us(50.0 + static_cast<double>(s % 450));
  eng.schedule(d, [&eng, s, remaining] { idle_chain(eng, s, remaining - 1); });
}

void setup_idle(Engine& eng, std::int64_t scale) {
  for (int a = 0; a < 4; ++a) {
    idle_chain(eng, static_cast<std::uint32_t>(a) * 40503u + 7u,
               static_cast<std::int32_t>(scale));
  }
}

// ---- measurement ----------------------------------------------------------

struct RunResult {
  double wall_s = 0;
  double sim_ns = 0;
  double events = 0;
  double sim_ns_per_wall_s = 0;
  double events_per_s = 0;
};

/// Times `eng.run()`, or `eng.run_until(*horizon)` counting the whole
/// horizon as simulated time.
RunResult time_run(Engine& eng, std::optional<Picoseconds> horizon = std::nullopt) {
  const auto t0 = std::chrono::steady_clock::now();
  if (horizon) {
    eng.run_until(*horizon);
  } else {
    eng.run();
  }
  const auto t1 = std::chrono::steady_clock::now();
  RunResult r;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  if (r.wall_s <= 0) r.wall_s = 1e-9;
  r.sim_ns = static_cast<double>((horizon ? *horizon : eng.now()).count()) / 1e3;
  r.events = static_cast<double>(eng.events_processed());
  r.sim_ns_per_wall_s = r.sim_ns / r.wall_s;
  r.events_per_s = r.events / r.wall_s;
  return r;
}

// Floors on the calendar/heap_reference speedup: 80% of the ratios the
// engine held when they were set (micro 1.3x, kv_serving_shaped 3.2x,
// idle_heavy 1.1x), themselves conservative against the typical kv ~3.3-3.9,
// micro ~1.4-1.8 and idle ~1.2-1.5, so scheduler noise does not false-fail.
// Both schedulers run in this binary on the same machine, so the ratio is a
// property of the engine, not of the runner.
constexpr double kMinMicroSpeedup = 1.3 * 0.8;
constexpr double kMinKvSpeedup = 3.2 * 0.8;
constexpr double kMinIdleSpeedup = 1.1 * 0.8;

}  // namespace

int main(int argc, char** argv) {
  using tcc::bench::BenchReport;
  const bool smoke = tcc::bench::flag_bool(argc, argv, "--smoke");
  const int reps = static_cast<int>(tcc::bench::flag_int(argc, argv, "--reps=", smoke ? 4 : 5));
  const std::int64_t micro_scale = tcc::bench::flag_int(argc, argv, "--micro-scale=", smoke ? 4000 : 20000);
  const std::int64_t kv_requests = tcc::bench::flag_int(argc, argv, "--kv-requests=", smoke ? 20000 : 100000);
  const std::int64_t idle_scale = tcc::bench::flag_int(argc, argv, "--idle-scale=", smoke ? 10000 : 50000);

  BenchReport report("sim_throughput", "simulated-ns per wall-second", "sim-ns/s");
  report.config("smoke", smoke ? 1.0 : 0.0);
  report.config("reps", static_cast<double>(reps));
  report.config("micro_scale", static_cast<double>(micro_scale));
  report.config("kv_requests", static_cast<double>(kv_requests));
  report.config("idle_scale", static_cast<double>(idle_scale));

  std::printf("%-20s %-14s %14s %14s %12s\n", "workload", "scheduler", "sim-ns/wall-s",
              "events/s", "wall-s");

  // kv_serving_shaped: both schedulers simulate the exact same horizon
  // (run_until), so sim-ns/wall-s compares identical offered load — the
  // heap reference pays for draining its dead cancelled timers inside the
  // measured span instead of tacking cheap idle time onto the end.
  // Horizon: upper-bound last arrival (8 us max gap per client) plus the
  // 500 us deadline tail, rounded up.
  const Picoseconds kv_horizon =
      Picoseconds::from_us(static_cast<double>(kv_requests) / 256.0 * 8.0 + 600.0);
  const auto run = [&](std::string_view name, Scheduler sched) -> RunResult {
    Engine eng(sched);
    if (name == "micro") {
      setup_micro(eng, micro_scale);
      return time_run(eng);
    }
    if (name == "idle_heavy") {
      setup_idle(eng, idle_scale);
      return time_run(eng);
    }
    KvState st{eng, kv_requests};  // outlives the run; dies before eng
    setup_kv(eng, st);
    return time_run(eng, kv_horizon);
  };

  tcc::bench::Gate gate;
  const std::pair<const char*, double> workloads[] = {
      {"micro", kMinMicroSpeedup},
      {"kv_serving_shaped", kMinKvSpeedup},
      {"idle_heavy", kMinIdleSpeedup}};
  for (const auto& [name, min_speedup] : workloads) {
    // Each repetition runs a calendar engine and then a heap engine, so host
    // noise (a frequency step, a neighbour's burst) lands on both sides of
    // the ratio instead of on one scheduler's whole block. Best of each.
    RunResult cal, heap;
    for (int i = 0; i < reps + 1; ++i) {  // +1 warmup round, discarded
      const RunResult c = run(name, Scheduler::kCalendar);
      const RunResult h = run(name, Scheduler::kHeapReference);
      if (i == 0) continue;
      if (c.sim_ns_per_wall_s > cal.sim_ns_per_wall_s) cal = c;
      if (h.sim_ns_per_wall_s > heap.sim_ns_per_wall_s) heap = h;
    }
    const double speedup = cal.sim_ns_per_wall_s / heap.sim_ns_per_wall_s;
    for (const auto& [sched_name, r] :
         {std::pair<const char*, const RunResult&>{"calendar", cal},
          std::pair<const char*, const RunResult&>{"heap_reference", heap}}) {
      std::printf("%-20s %-14s %14.3e %14.3e %12.4f\n", name, sched_name,
                  r.sim_ns_per_wall_s, r.events_per_s, r.wall_s);
      report.add_sample(r.sim_ns_per_wall_s);
      BenchReport::Fields row = {
          BenchReport::str("workload", name),
          BenchReport::str("scheduler", sched_name),
          BenchReport::num("sim_ns", r.sim_ns),
          BenchReport::num("wall_s", r.wall_s),
          BenchReport::num("sim_ns_per_wall_s", r.sim_ns_per_wall_s),
          BenchReport::num("events", r.events),
          BenchReport::num("events_per_s", r.events_per_s),
      };
      if (std::string(sched_name) == "calendar") {
        row.push_back(BenchReport::num("speedup_vs_heap", speedup));
      }
      report.add_row(std::move(row));
    }
    std::printf("%-20s %-14s %14.2fx (calendar vs heap_reference, floor %.2fx)\n", name,
                "speedup", speedup, min_speedup);
    gate.check(speedup >= min_speedup,
               tcc::strprintf("%s: speedup %.2fx below %.2fx", name, speedup, min_speedup));
  }

  report.write(tcc::bench::flag_value(argc, argv, "--bench-out="));
  return gate.exit_code();
}
