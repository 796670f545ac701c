// Guards the simulator's allocation-free hot path (docs/SIMULATOR.md, "Host
// cost per event"). This binary replaces global operator new with a counting
// version, so each loop below can assert that, once warmed up, it makes no
// heap allocation at all: coroutine frames come from the frame freelists,
// event nodes from the engine's slabs, Trigger wake lists keep their
// capacity, and uncacheable loads fill the caller's buffer.
#include <gtest/gtest.h>

#include <coroutine>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "tccluster/cluster.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define TCC_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TCC_TEST_ASAN 1
#endif
#endif
#if defined(TCC_TEST_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace {
std::uint64_t g_allocations = 0;
}  // namespace

// The array, nothrow and sized forms of the library implementation forward
// to these two.
void* operator new(std::size_t n) {
  ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace tcc {
namespace {

constexpr int kRounds = 1000;

/// Run `body` twice inside one process: a warm-up pass that may fill the
/// freelists, then a measured pass. Returns the measured pass's allocations.
template <typename Body>
std::uint64_t allocations_after_warmup(sim::Engine& engine, Body body) {
  std::uint64_t measured = ~std::uint64_t{0};
  engine.spawn_fn([&]() -> sim::Task<void> {
    co_await body();
    const std::uint64_t before = g_allocations;
    co_await body();
    measured = g_allocations - before;
  });
  engine.run();
  return measured;
}

TEST(HotPathAlloc, UncacheableRingPollsAllocateNothing) {
  cluster::TcCluster::Options o;
  o.topology.shape = topology::ClusterShape::kCable;
  o.topology.dram_per_chip = 32_MiB;
  auto created = cluster::TcCluster::create(o);
  ASSERT_TRUE(created.ok()) << created.error().to_string();
  auto& cl = *created.value();
  ASSERT_TRUE(cl.boot().ok());

  // Chip 1 polls the first word of its own receive ring, mapped uncacheable.
  opteron::Core& core = cl.core(1);
  const PhysAddr word = cl.driver(1).ring_region(1).base;
  ASSERT_EQ(core.mtrr().type_of(word), opteron::MemType::kUncacheable);
  int failed = 0;
  const std::uint64_t allocs = allocations_after_warmup(cl.engine(), [&]() -> sim::Task<void> {
    for (int i = 0; i < kRounds; ++i) {
      if (!(co_await core.load_u64(word)).ok()) ++failed;
    }
  });
  EXPECT_EQ(failed, 0);
  EXPECT_EQ(allocs, 0u);
}

TEST(HotPathAlloc, TriggerNotifyWaitRoundsAllocateNothing) {
  sim::Engine engine;
  sim::Trigger ping(engine);
  sim::Trigger pong(engine);
  bool stop = false;
  engine.spawn_fn([&]() -> sim::Task<void> {
    while (!stop) {
      co_await ping.wait();
      pong.notify();
    }
  });
  const std::uint64_t allocs = allocations_after_warmup(engine, [&]() -> sim::Task<void> {
    for (int i = 0; i < kRounds; ++i) {
      ping.notify();
      co_await pong.wait();
    }
  });
  stop = true;
  ping.notify();
  engine.run();
  EXPECT_EQ(allocs, 0u);
  EXPECT_TRUE(engine.all_processes_done());
}

sim::Task<int> leaf(int x) { co_return x + 1; }
sim::Task<int> middle(int x) { co_return 2 * co_await leaf(x); }

TEST(HotPathAlloc, NestedTaskAwaitsAllocateNothing) {
  sim::Engine engine;
  long sum = 0;
  const std::uint64_t allocs = allocations_after_warmup(engine, [&]() -> sim::Task<void> {
    for (int i = 0; i < kRounds; ++i) sum += co_await middle(i);
  });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(sum, 2 * 2 * (kRounds * (kRounds + 1) / 2));  // both passes
}

/// Records the address of the frame that awaits it, without suspending.
struct FrameAddress {
  void** out;
  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) const noexcept {
    *out = h.address();
    return false;
  }
  void await_resume() const noexcept {}
};

[[maybe_unused]] sim::Task<void> record_frame(void** out) { co_await FrameAddress{out}; }

TEST(HotPathAlloc, ParkedFramesArePoisonedForAsan) {
#if defined(TCC_TEST_ASAN)
  void* frame = nullptr;
  sim::Engine engine;
  engine.spawn(record_frame(&frame));
  engine.run();  // the process finishes and the engine destroys its frame
  ASSERT_NE(frame, nullptr);
  EXPECT_TRUE(__asan_address_is_poisoned(frame));
#else
  GTEST_SKIP() << "needs an AddressSanitizer build";
#endif
}

}  // namespace
}  // namespace tcc
