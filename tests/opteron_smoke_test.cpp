// End-to-end smoke tests of the Opteron chip model: two chips wired like the
// paper's two-board prototype (hand-programmed registers, no firmware yet),
// exchanging data over a forced-non-coherent link.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "opteron/chip.hpp"

namespace tcc::opteron {
namespace {

constexpr std::uint64_t kNode0Base = 4_GiB;
constexpr std::uint64_t kNodeBytes = 256_MiB;
constexpr std::uint64_t kNode1Base = kNode0Base + kNodeBytes;

/// Two-node TCCluster wired by hand: the register state §IV.C/§IV.D describe.
struct TwoNodeFixture : ::testing::Test {
  sim::Engine engine;
  OpteronChip n0{engine, ChipConfig{.name = "n0"}};
  OpteronChip n1{engine, ChipConfig{.name = "n1"}};
  ht::HtLink link{engine, n0.endpoint(1), n1.endpoint(1)};

  AddrRange dram0{PhysAddr{kNode0Base}, kNodeBytes};
  AddrRange dram1{PhysAddr{kNode1Base}, kNodeBytes};

  void SetUp() override {
    // Force the processor-processor link non-coherent and bring it to HT800,
    // as the firmware's warm-reset sequence would.
    for (auto* ep : {&n0.endpoint(1), &n1.endpoint(1)}) {
      ep->regs().force_noncoherent = true;
      ep->regs().requested_freq = ht::LinkFreq::kHt800;
    }
    ASSERT_EQ(link.train().kind, ht::LinkKind::kNonCoherent);

    n0.set_dram_window(dram0);
    n1.set_dram_window(dram1);

    configure(n0, dram0, dram1);
    configure(n1, dram1, dram0);
  }

  static void configure(OpteronChip& chip, AddrRange local, AddrRange remote) {
    NorthbridgeRegs& regs = chip.nb().regs();
    regs.node_id = 0;  // every TCCluster node claims NodeID zero (§IV.C)
    ASSERT_TRUE(regs.add_dram_range(local, 0).ok());
    ASSERT_TRUE(regs.add_mmio_range(remote, /*dst_link=*/1,
                                    /*non_posted_allowed=*/false)
                    .ok());
    regs.tccluster_mode = true;
    regs.tccluster_links = 1u << 1;

    // MTRRs: local memory write-back, local receive ring uncacheable,
    // remote aperture write-combining (§V "CPU MSR Init" + driver rules).
    ASSERT_TRUE(chip.set_mtrr_all_cores(local, MemType::kWriteBack).ok());
    ASSERT_TRUE(chip.set_mtrr_all_cores(AddrRange{local.base, 1_MiB},
                                        MemType::kUncacheable)
                    .ok());
    ASSERT_TRUE(chip.set_mtrr_all_cores(remote, MemType::kWriteCombining).ok());
  }
};

TEST_F(TwoNodeFixture, RemoteStoreLandsInRemoteDram) {
  std::vector<std::uint8_t> msg(64);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<std::uint8_t>(i + 1);

  engine.spawn_fn([&]() -> sim::Task<void> {
    Core& c = n0.core(0);
    // Write into node1's UC ring area (remote => WC aperture from node0).
    (co_await c.store_bytes(PhysAddr{kNode1Base + 0x100}, msg)).expect("store");
    (co_await c.sfence()).expect("sfence");
  });
  engine.run();

  std::vector<std::uint8_t> got(64);
  n1.mc().peek(PhysAddr{kNode1Base + 0x100}, got);
  EXPECT_EQ(got, msg);
  EXPECT_EQ(n1.nb().regs().io_bridge_conversions, 1u);  // ncHT -> DRAM
}

TEST_F(TwoNodeFixture, LocalStoresDoNotCrossTheLink) {
  engine.spawn_fn([&]() -> sim::Task<void> {
    Core& c = n0.core(0);
    (co_await c.store_u64(PhysAddr{kNode0Base + 8_MiB}, 0xdeadbeefull)).expect("store");
  });
  engine.run();
  EXPECT_EQ(n0.endpoint(1).packets_sent(), 0u);
  std::uint8_t got[8];
  n0.mc().peek(PhysAddr{kNode0Base + 8_MiB}, got);
  std::uint64_t v;
  std::memcpy(&v, got, 8);
  EXPECT_EQ(v, 0xdeadbeefull);
}

TEST_F(TwoNodeFixture, WriteCombiningFormsFullLinePackets) {
  engine.spawn_fn([&]() -> sim::Task<void> {
    Core& c = n0.core(0);
    std::vector<std::uint8_t> line(64, 0x5a);
    for (int l = 0; l < 16; ++l) {
      (co_await c.store_bytes(PhysAddr{kNode1Base + 64u * l}, line)).expect("store");
    }
    (co_await c.sfence()).expect("sfence");
  });
  engine.run();
  // 16 aligned 64 B lines -> exactly 16 max-sized packets.
  EXPECT_EQ(n0.core(0).wc().full_line_packets(), 16u);
  EXPECT_EQ(n0.endpoint(1).packets_sent(), 16u);
}

TEST_F(TwoNodeFixture, ReceiverPollObservesMessageAndLatencyIsSane) {
  Picoseconds sent_at, seen_at;
  const PhysAddr flag{kNode1Base + 0x40};

  engine.spawn_fn([&]() -> sim::Task<void> {  // receiver: poll UC memory
    Core& c = n1.core(0);
    for (;;) {
      auto v = co_await c.load_u64(flag);
      EXPECT_TRUE(v.ok());
      if (v.value() != 0) {
        seen_at = engine.now();
        co_return;
      }
      co_await c.compute(kPollLoopOverhead);
    }
  });
  engine.spawn_fn([&]() -> sim::Task<void> {  // sender
    Core& c = n0.core(0);
    co_await c.compute(ns(100));  // let the receiver reach steady polling
    sent_at = engine.now();
    (co_await c.store_u64(flag, 1)).expect("store");
    (co_await c.sfence()).expect("sfence");
  });
  engine.run();

  const double oneway_ns = (seen_at - sent_at).nanoseconds();
  // One-way visibility for an 8-byte store: must be on the order of the
  // paper's 227 ns half-round-trip — we accept a generous window here and
  // pin the exact figure in the fig7 bench test.
  EXPECT_GT(oneway_ns, 50.0);
  EXPECT_LT(oneway_ns, 500.0);
}

TEST_F(TwoNodeFixture, LoadFromTcclusterApertureIsRejected) {
  bool checked = false;
  engine.spawn_fn([&]() -> sim::Task<void> {
    Core& c = n0.core(0);
    auto r = co_await c.load_u64(PhysAddr{kNode1Base + 0x100});
    EXPECT_FALSE(r.ok());
    if (!r.ok()) {
      EXPECT_EQ(r.error().code, ErrorCode::kUnsupported);
      checked = true;
    }
  });
  engine.run();
  EXPECT_TRUE(checked);
}

TEST_F(TwoNodeFixture, IncomingReadOnTcclusterLinkIsDropped) {
  // Inject a read request directly onto the wire, as a misbehaving node
  // would: the receiving northbridge must drop it (§IV.A).
  ASSERT_TRUE(n0.endpoint(1)
                  .send(ht::Packet::sized_read(PhysAddr{kNode1Base + 0x100}, 8,
                                               ht::SourceTag{0, 0, 5}))
                  .ok());
  engine.run();
  EXPECT_EQ(n1.nb().regs().dropped_reads, 1u);
}

TEST_F(TwoNodeFixture, MasterAbortOnUnmappedAddress) {
  bool checked = false;
  engine.spawn_fn([&]() -> sim::Task<void> {
    Core& c = n0.core(0);
    Status s = co_await c.store_u64(PhysAddr{0x10}, 1);  // below all ranges
    EXPECT_FALSE(s.ok());
    checked = true;
  });
  engine.run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(n0.nb().regs().master_aborts, 1u);
}

TEST_F(TwoNodeFixture, BroadcastSuppressedOnTcclusterLink) {
  n0.nb().regs().broadcast_forward_mask = 1u << 1;  // kernel would forward...
  n0.nb().regs().suppress_remote_broadcasts = true;  // ...but the rule stops it
  engine.spawn_fn([&]() -> sim::Task<void> {
    (void)co_await n0.nb().core_broadcast();
  });
  engine.run();
  EXPECT_EQ(n0.nb().regs().dropped_broadcasts, 1u);
  EXPECT_EQ(n1.nb().broadcasts_received(), 0u);
}

TEST_F(TwoNodeFixture, StockKernelWouldLeakInterruptsAcrossTheNetwork) {
  // The failure mode the custom 2.6.34 kernel exists to prevent (§VI).
  n0.nb().regs().broadcast_forward_mask = 1u << 1;
  n0.nb().regs().suppress_remote_broadcasts = false;
  engine.spawn_fn([&]() -> sim::Task<void> {
    (void)co_await n0.nb().core_broadcast();
  });
  engine.run();
  EXPECT_EQ(n1.nb().broadcasts_received(), 1u);
}

TEST(Mtrr, TypeResolutionAndPrecedence) {
  MtrrFile m(MemType::kUncacheable);
  ASSERT_TRUE(m.set(AddrRange{PhysAddr{0x100000}, 0x100000}, MemType::kWriteBack).ok());
  ASSERT_TRUE(m.set(AddrRange{PhysAddr{0x140000}, 0x1000}, MemType::kWriteCombining).ok());
  EXPECT_EQ(m.type_of(PhysAddr{0x50}), MemType::kUncacheable);     // default
  EXPECT_EQ(m.type_of(PhysAddr{0x100000}), MemType::kWriteBack);
  EXPECT_EQ(m.type_of(PhysAddr{0x140800}), MemType::kWriteCombining);  // later wins
  EXPECT_FALSE(m.uniform(PhysAddr{0x13f000}, 0x3000));
  EXPECT_TRUE(m.uniform(PhysAddr{0x140000}, 0x1000));
}

TEST(Mtrr, RejectsUnalignedRanges) {
  MtrrFile m;
  EXPECT_FALSE(m.set(AddrRange{PhysAddr{0x100}, 0x1000}, MemType::kWriteBack).ok());
  EXPECT_FALSE(m.set(AddrRange{PhysAddr{0x1000}, 0x100}, MemType::kWriteBack).ok());
  EXPECT_FALSE(m.set(AddrRange{PhysAddr{0x1000}, 0}, MemType::kWriteBack).ok());
}

TEST(MemoryController, SparsePagesReadZeroAndRoundTrip) {
  sim::Engine e;
  MemoryController mc(e, AddrRange{PhysAddr{0x10000}, 1_MiB});
  std::uint8_t buf[16] = {};
  mc.peek(PhysAddr{0x10000}, buf);
  for (auto b : buf) EXPECT_EQ(b, 0);

  std::uint8_t data[16];
  for (int i = 0; i < 16; ++i) data[i] = static_cast<std::uint8_t>(i * 3);
  // Cross-page write: straddle the 4 KiB boundary.
  mc.poke(PhysAddr{0x10000 + 4096 - 8}, data);
  std::uint8_t got[16];
  mc.peek(PhysAddr{0x10000 + 4096 - 8}, got);
  EXPECT_EQ(0, std::memcmp(got, data, 16));
}

TEST(MemoryController, PostedWriteBecomesVisibleAfterWriteLatency) {
  sim::Engine e;
  MemoryController mc(e, AddrRange{PhysAddr{0}, 1_MiB});
  std::uint8_t one[1] = {42};
  mc.post_write(PhysAddr{0x100}, one);
  std::uint8_t got[1] = {0};
  mc.peek(PhysAddr{0x100}, got);
  EXPECT_EQ(got[0], 0);  // not yet visible
  e.run();
  mc.peek(PhysAddr{0x100}, got);
  EXPECT_EQ(got[0], 42);
}

}  // namespace
}  // namespace tcc::opteron
