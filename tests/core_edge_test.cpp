// Edge-case tests: core memory-op corner cases, link negotiation details,
// and response-tag pool exhaustion under heavy concurrency.
#include <gtest/gtest.h>

#include <cstring>

#include "opteron/chip.hpp"

namespace tcc::opteron {
namespace {

constexpr std::uint64_t kBase = 4_GiB;

struct SoloChip : ::testing::Test {
  sim::Engine engine;
  OpteronChip chip{engine, ChipConfig{.name = "solo"}};

  void SetUp() override {
    chip.set_dram_window(AddrRange{PhysAddr{kBase}, 16_MiB});
    auto& regs = chip.nb().regs();
    regs.node_id = 0;
    ASSERT_TRUE(regs.add_dram_range(AddrRange{PhysAddr{kBase}, 16_MiB}, 0).ok());
    ASSERT_TRUE(chip.set_mtrr_all_cores(AddrRange{PhysAddr{kBase}, 8_MiB},
                                        MemType::kWriteBack)
                    .ok());
    ASSERT_TRUE(chip.set_mtrr_all_cores(AddrRange{PhysAddr{kBase + 8_MiB}, 8_MiB},
                                        MemType::kUncacheable)
                    .ok());
  }
};

TEST_F(SoloChip, WbRoundTripThroughCache) {
  std::uint64_t got = 0;
  engine.spawn_fn([&]() -> sim::Task<void> {
    (co_await chip.core(0).store_u64(PhysAddr{kBase + 0x100}, 0xfeed)).expect("store");
    auto r = co_await chip.core(0).load_u64(PhysAddr{kBase + 0x100});
    EXPECT_TRUE(r.ok());
    if (r.ok()) got = r.value();
  });
  engine.run();
  EXPECT_EQ(got, 0xfeedu);
}

TEST_F(SoloChip, UcLocalRoundTripIsSlowerThanWb) {
  Picoseconds wb_time, uc_time;
  engine.spawn_fn([&]() -> sim::Task<void> {
    Picoseconds t0 = engine.now();
    (void)co_await chip.core(0).load_u64(PhysAddr{kBase + 0x100});  // WB
    wb_time = engine.now() - t0;
    t0 = engine.now();
    (void)co_await chip.core(0).load_u64(PhysAddr{kBase + 8_MiB});  // UC
    uc_time = engine.now() - t0;
  });
  engine.run();
  EXPECT_GT(uc_time.count(), 5 * wb_time.count());
}

TEST_F(SoloChip, MisalignedCrossPageBytesRoundTrip) {
  std::vector<std::uint8_t> data(100);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i ^ 0x5a);
  const PhysAddr addr{kBase + 4096 - 37};  // straddles a page, misaligned
  std::vector<std::uint8_t> got(100);
  engine.spawn_fn([&]() -> sim::Task<void> {
    (co_await chip.core(0).store_bytes(addr, data)).expect("store");
    (co_await chip.core(0).load_bytes(addr, got)).expect("load");
  });
  engine.run();
  EXPECT_EQ(got, data);
}

TEST_F(SoloChip, WbAccessOutsideLocalDramIsRejected) {
  // WB-typed address beyond this chip's memory: the raw core API refuses
  // (remote WB needs the coherence layer).
  ASSERT_TRUE(chip.set_mtrr_all_cores(AddrRange{PhysAddr{kBase + 32_MiB}, 1_MiB},
                                      MemType::kWriteBack)
                  .ok());
  bool store_checked = false, load_checked = false;
  engine.spawn_fn([&]() -> sim::Task<void> {
    Status s = co_await chip.core(0).store_u64(PhysAddr{kBase + 32_MiB}, 1);
    EXPECT_FALSE(s.ok());
    store_checked = true;
    auto r = co_await chip.core(0).load_u64(PhysAddr{kBase + 32_MiB});
    EXPECT_FALSE(r.ok());
    load_checked = true;
  });
  engine.run();
  EXPECT_TRUE(store_checked);
  EXPECT_TRUE(load_checked);
}

TEST_F(SoloChip, StatisticsCountOps) {
  engine.spawn_fn([&]() -> sim::Task<void> {
    for (int i = 0; i < 5; ++i) {
      (co_await chip.core(0).store_u64(PhysAddr{kBase + 8u * i}, i)).expect("s");
    }
    (void)co_await chip.core(0).load_u64(PhysAddr{kBase});
    (co_await chip.core(0).sfence()).expect("f");
  });
  engine.run();
  EXPECT_EQ(chip.core(0).stores(), 5u);
  EXPECT_EQ(chip.core(0).loads(), 1u);
  EXPECT_EQ(chip.core(0).sfences(), 1u);
}

TEST_F(SoloChip, CoresHaveIndependentMtrrsAndWcUnits) {
  // Core 1 gets a private WC-typed alias over the UC region.
  ASSERT_TRUE(chip.core(1)
                  .mtrr()
                  .set(AddrRange{PhysAddr{kBase + 8_MiB}, 1_MiB}, MemType::kWriteCombining)
                  .ok());
  engine.spawn_fn([&]() -> sim::Task<void> {
    // Core 1 store combines (stays in a WC buffer)...
    (co_await chip.core(1).store_u64(PhysAddr{kBase + 8_MiB}, 1)).expect("s1");
    // ...core 0's identical store is UC and posts immediately.
    (co_await chip.core(0).store_u64(PhysAddr{kBase + 8_MiB + 64}, 2)).expect("s0");
  });
  engine.run();
  EXPECT_EQ(chip.core(1).wc().open_buffers(), 1);
  EXPECT_EQ(chip.core(0).wc().open_buffers(), 0);
}

// ------------------------------------------------------------- links -----

TEST(LinkNegotiation, EightBitPartsForceNarrowLink) {
  sim::Engine e;
  ht::HtEndpoint a(e, "a", ht::EndpointDevice::kProcessor);
  ht::HtEndpoint b(e, "b", ht::EndpointDevice::kProcessor);
  a.regs().max_width = ht::LinkWidth::k8;  // cost-down part
  ht::HtLink link(e, a, b);
  const auto r = link.train();
  EXPECT_EQ(r.width, ht::LinkWidth::k8);
  // Half the lanes -> half the rate.
  EXPECT_DOUBLE_EQ(a.regs().rate().bytes_per_second(),
                   ht::link_rate(ht::LinkWidth::k8, r.freq).bytes_per_second());
}

TEST(LinkNegotiation, PartFrequencyCapWins) {
  sim::Engine e;
  ht::HtEndpoint a(e, "a", ht::EndpointDevice::kProcessor);
  ht::HtEndpoint b(e, "b", ht::EndpointDevice::kProcessor);
  a.regs().max_freq = ht::LinkFreq::kHt1000;  // older silicon
  a.regs().requested_freq = ht::LinkFreq::kHt2600;
  b.regs().requested_freq = ht::LinkFreq::kHt2600;
  ht::HtLink link(e, a, b);
  EXPECT_EQ(link.train().freq, ht::LinkFreq::kHt1000);
}

TEST(LinkNegotiation, MalformedPacketIsRejectedAtSend) {
  sim::Engine e;
  ht::HtEndpoint a(e, "a", ht::EndpointDevice::kProcessor);
  ht::HtEndpoint b(e, "b", ht::EndpointDevice::kProcessor);
  ht::HtLink link(e, a, b);
  link.train();
  ht::Packet p;
  p.command = ht::Command::kSizedWritePosted;
  p.size = 32;  // claims 32 bytes...
  p.data.assign(8, 0);  // ...carries 8
  Status s = a.send(std::move(p));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::kProtocolViolation);
}

TEST(LinkNegotiation, WarmResetRequiresRetraining) {
  sim::Engine e;
  OpteronChip c0{e, ChipConfig{.name = "c0"}};
  OpteronChip c1{e, ChipConfig{.name = "c1"}};
  ht::HtLink link(e, c0.endpoint(0), c1.endpoint(0));
  link.train();
  EXPECT_TRUE(c0.endpoint(0).regs().init_complete);
  c0.warm_reset();
  EXPECT_FALSE(c0.endpoint(0).regs().init_complete);
  // Sending on an untrained link fails cleanly.
  EXPECT_FALSE(c0.endpoint(0)
                   .send(ht::Packet::posted_write(PhysAddr{0},
                                                  std::vector<std::uint8_t>(8, 0)))
                   .ok());
  link.train();
  EXPECT_TRUE(c0.endpoint(0).regs().init_complete);
}

// ---------------------------------------------- response tag pressure ----

TEST(TagPool, MoreOutstandingReadsThanTagsAllComplete) {
  // 48 concurrent single-read processes against 32 response tags: the pool
  // must block excess requesters, recycle tags, and finish everything.
  sim::Engine engine;
  OpteronChip a{engine, ChipConfig{.name = "a"}};
  OpteronChip b{engine, ChipConfig{.name = "b"}};
  ht::HtLink link(engine, a.endpoint(0), b.endpoint(0));
  link.train();  // coherent pair
  const AddrRange dram_a{PhysAddr{kBase}, 16_MiB};
  const AddrRange dram_b{PhysAddr{kBase + 16_MiB}, 16_MiB};
  a.set_dram_window(dram_a);
  b.set_dram_window(dram_b);
  auto& ra = a.nb().regs();
  ra.node_id = 0;
  ASSERT_TRUE(ra.add_dram_range(dram_a, 0).ok());
  ASSERT_TRUE(ra.add_dram_range(dram_b, 1).ok());
  ra.routes[1] = RouteReg{0, 0, 0};
  auto& rb = b.nb().regs();
  rb.node_id = 1;
  ASSERT_TRUE(rb.add_dram_range(dram_a, 0).ok());
  ASSERT_TRUE(rb.add_dram_range(dram_b, 1).ok());
  rb.routes[0] = RouteReg{0, 0, 0};
  ASSERT_TRUE(a.set_mtrr_all_cores(dram_b, MemType::kUncacheable).ok());

  int completed = 0;
  for (int i = 0; i < 48; ++i) {
    engine.spawn_fn([&, i]() -> sim::Task<void> {
      auto r = co_await a.core(i % 4).load_u64(dram_b.base + 8u * i);
      EXPECT_TRUE(r.ok());
      if (r.ok()) ++completed;
    });
  }
  engine.run();
  EXPECT_EQ(completed, 48);
}

}  // namespace
}  // namespace tcc::opteron
