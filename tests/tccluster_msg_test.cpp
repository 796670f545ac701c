// End-to-end tests of the public API: boot a cluster, exchange messages with
// the tcmsg library, exercise flow control, ordering modes, one-sided puts,
// the driver's checks, and multi-node / multi-hop delivery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/rng.hpp"
#include "opteron/timing.hpp"
#include "tccluster/cluster.hpp"

namespace tcc::cluster {
namespace {

TcCluster::Options cable_options() {
  TcCluster::Options o;
  o.topology.shape = topology::ClusterShape::kCable;
  o.topology.nx = 2;
  o.topology.dram_per_chip = 64_MiB;
  return o;
}

std::vector<std::uint8_t> pattern(std::size_t n, std::uint8_t seed = 1) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<std::uint8_t>(seed + i * 7);
  return v;
}

class CableCluster : public ::testing::Test {
 protected:
  void SetUp() override {
    auto c = TcCluster::create(cable_options());
    ASSERT_TRUE(c.ok()) << c.error().to_string();
    cluster = std::move(c.value());
    Status st = cluster->boot();
    ASSERT_TRUE(st.ok()) << st.error().to_string();
  }
  std::unique_ptr<TcCluster> cluster;
};

TEST_F(CableCluster, DriverProbesPass) {
  for (int n = 0; n < 2; ++n) {
    EXPECT_TRUE(cluster->driver(n).loaded());
    for (const std::string& line : cluster->driver(n).probe_log()) {
      EXPECT_EQ(line.rfind("ok:", 0), 0u) << line;
    }
  }
}

TEST_F(CableCluster, SmallMessageRoundTrip) {
  auto* tx = cluster->msg(0).connect(1).value();
  auto* rx = cluster->msg(1).connect(0).value();
  const auto payload = pattern(32);
  std::vector<std::uint8_t> got;

  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    (co_await tx->send(payload)).expect("send");
  });
  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    auto r = co_await rx->recv();
    EXPECT_TRUE(r.ok());
    if (r.ok()) got = std::move(r.value());
  });
  cluster->engine().run();
  EXPECT_EQ(got, payload);
  EXPECT_EQ(tx->stats().messages_sent, 1u);
  EXPECT_EQ(rx->stats().messages_received, 1u);
}

TEST_F(CableCluster, EmptyMessageWorksAsDoorbell) {
  auto* tx = cluster->msg(0).connect(1).value();
  auto* rx = cluster->msg(1).connect(0).value();
  bool seen = false;
  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    (co_await tx->send({})).expect("send");
  });
  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    auto r = co_await rx->recv_discard();
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_EQ(r.value(), 0u);
      seen = true;
    }
  });
  cluster->engine().run();
  EXPECT_TRUE(seen);
}

TEST_F(CableCluster, MaxSizeMessageAndSegmentation) {
  auto* tx = cluster->msg(0).connect(1).value();
  auto* rx = cluster->msg(1).connect(0).value();
  // One max message plus a 10000-byte payload that must segment into 3.
  const auto big = pattern(kMaxMessageBytes, 3);
  const auto huge = pattern(10000, 5);
  std::vector<std::uint8_t> got_big, got_huge;

  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    (co_await tx->send(big)).expect("send big");
    (co_await tx->send_bytes(huge)).expect("send huge");
  });
  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    auto r1 = co_await rx->recv();
    EXPECT_TRUE(r1.ok());
    if (r1.ok()) got_big = std::move(r1.value());
    std::vector<std::uint8_t> assembled;
    while (assembled.size() < huge.size()) {
      auto r = co_await rx->recv();
      EXPECT_TRUE(r.ok());
      if (!r.ok()) co_return;
      assembled.insert(assembled.end(), r.value().begin(), r.value().end());
    }
    got_huge = std::move(assembled);
  });
  cluster->engine().run();
  EXPECT_EQ(got_big, big);
  EXPECT_EQ(got_huge, huge);
}

TEST_F(CableCluster, ManyMessagesExerciseFlowControl) {
  auto* tx = cluster->msg(0).connect(1).value();
  auto* rx = cluster->msg(1).connect(0).value();
  constexpr int kCount = 500;  // 500 one-slot messages >> 63 ring slots
  int received = 0;
  bool order_ok = true;

  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    for (int i = 0; i < kCount; ++i) {
      std::uint8_t payload[8];
      std::uint64_t v = static_cast<std::uint64_t>(i);
      std::memcpy(payload, &v, 8);
      (co_await tx->send(payload)).expect("send");
    }
  });
  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    for (int i = 0; i < kCount; ++i) {
      auto r = co_await rx->recv();
      EXPECT_TRUE(r.ok());
      if (!r.ok()) co_return;
      std::uint64_t v;
      std::memcpy(&v, r.value().data(), 8);
      if (v != static_cast<std::uint64_t>(i)) order_ok = false;
      ++received;
    }
  });
  cluster->engine().run();
  EXPECT_EQ(received, kCount);
  EXPECT_TRUE(order_ok);                       // in-order delivery (§IV.A)
  EXPECT_GT(tx->stats().credit_stalls, 0u);    // the ring really filled
  EXPECT_GT(rx->stats().acks_sent, kCount / 32u);  // periodic pointer exchange
}

TEST_F(CableCluster, StrictModeIsSlowerThanWeaklyOrdered) {
  auto* tx = cluster->msg(0).connect(1).value();
  auto* rx = cluster->msg(1).connect(0).value();
  const auto payload = pattern(3500);

  Picoseconds strict_time, weak_time;
  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    Picoseconds t0 = tx->core().now();
    (co_await tx->send(payload, OrderingMode::kStrict)).expect("send");
    strict_time = tx->core().now() - t0;
    t0 = tx->core().now();
    (co_await tx->send(payload, OrderingMode::kWeaklyOrdered)).expect("send");
    weak_time = tx->core().now() - t0;
  });
  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    (void)co_await rx->recv_discard();
    (void)co_await rx->recv_discard();
  });
  cluster->engine().run();
  EXPECT_GT(strict_time.count(), weak_time.count() * 5 / 4)
      << "strict=" << strict_time.nanoseconds() << "ns weak=" << weak_time.nanoseconds()
      << "ns";
}

TEST_F(CableCluster, PingPongLatencyIsInThePaperBallpark) {
  auto* ep0 = cluster->msg(0).connect(1).value();
  auto* ep1 = cluster->msg(1).connect(0).value();
  constexpr int kIters = 50;
  const auto payload = pattern(48);  // one-slot message ~ paper's 64 B packet
  Picoseconds t0, t1;

  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    t0 = cluster->engine().now();
    for (int i = 0; i < kIters; ++i) {
      (co_await ep0->send(payload)).expect("send");
      (void)co_await ep0->recv_discard();
    }
    t1 = cluster->engine().now();
  });
  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    for (int i = 0; i < kIters; ++i) {
      (void)co_await ep1->recv_discard();
      (co_await ep1->send(payload)).expect("send");
    }
  });
  cluster->engine().run();

  const double half_rtt_ns = (t1 - t0).nanoseconds() / (2.0 * kIters);
  // Fig. 7: 227 ns for 64 B. The model should land in the same regime.
  EXPECT_GT(half_rtt_ns, 120.0);
  EXPECT_LT(half_rtt_ns, 400.0);
}

TEST_F(CableCluster, OneSidedPutLandsInSharedRegion) {
  auto* tx = cluster->msg(0).connect(1).value();
  TcDriver& d0 = cluster->driver(0);
  TcDriver& d1 = cluster->driver(1);
  const AddrRange shared1 = d1.shared_region(1);
  const std::uint64_t ring_bytes = d1.ring_region(1).size;

  auto win = d0.map_remote(1, ring_bytes, 64_KiB);
  ASSERT_TRUE(win.ok()) << win.error().to_string();
  const auto payload = pattern(8192, 9);

  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    (co_await tx->put(win.value(), 4096, payload)).expect("put");
  });
  cluster->engine().run();

  std::vector<std::uint8_t> got(payload.size());
  cluster->machine().chip(1).mc().peek(shared1.base + 4096, got);
  EXPECT_EQ(got, payload);
}

TEST_F(CableCluster, RendezvousTransfersLargeDataWithOneNotice) {
  auto* tx = cluster->msg(0).connect(1).value();
  auto* rx = cluster->msg(1).connect(0).value();
  const std::uint64_t ring_bytes = cluster->driver(1).ring_region(1).size;
  auto win = cluster->driver(0).map_remote(1, ring_bytes, 1_MiB);
  ASSERT_TRUE(win.ok());

  const auto payload = pattern(200'000, 7);  // far larger than a ring message
  std::vector<std::uint8_t> got;
  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    (co_await tx->send_rendezvous(win.value(), 8192, payload)).expect("rendezvous");
  });
  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    auto r = co_await rx->recv_rendezvous_bytes();
    EXPECT_TRUE(r.ok());
    if (r.ok()) got = std::move(r.value());
  });
  cluster->engine().run();
  EXPECT_EQ(got, payload);
  // One ring message total: the 16-byte notice. Data flowed one-sided.
  EXPECT_EQ(tx->stats().messages_sent, 1u);
}

TEST_F(CableCluster, RendezvousNoticeCarriesReceiverRelativeOffset) {
  auto* tx = cluster->msg(0).connect(1).value();
  auto* rx = cluster->msg(1).connect(0).value();
  const std::uint64_t ring_bytes = cluster->driver(1).ring_region(1).size;
  // Window deliberately NOT at the shared-region start.
  auto win = cluster->driver(0).map_remote(1, ring_bytes + 64_KiB, 128_KiB);
  ASSERT_TRUE(win.ok());

  const auto payload = pattern(512, 3);
  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    (co_await tx->send_rendezvous(win.value(), 4096, payload)).expect("rendezvous");
  });
  MsgEndpoint::RendezvousNotice notice;
  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    auto r = co_await rx->recv_rendezvous();
    EXPECT_TRUE(r.ok());
    if (r.ok()) notice = r.value();
  });
  cluster->engine().run();
  EXPECT_EQ(notice.offset, 64_KiB + 4096);
  EXPECT_EQ(notice.len, 512u);
}

TEST_F(CableCluster, DriverRejectsBadMappings) {
  TcDriver& d = cluster->driver(0);
  EXPECT_FALSE(d.map_remote(0, 0, 4096).ok());       // self
  EXPECT_FALSE(d.map_remote(5, 0, 4096).ok());       // no such node
  EXPECT_FALSE(d.map_remote(1, 100, 4096).ok());     // unaligned
  EXPECT_FALSE(d.map_remote(1, 0, 0).ok());          // empty
  EXPECT_FALSE(d.map_remote(1, 0, 1_GiB).ok());      // beyond DRAM
  EXPECT_TRUE(d.map_remote(1, 4096, 8192).ok());
}

TEST_F(CableCluster, ConnectValidation) {
  EXPECT_FALSE(cluster->msg(0).connect(0).ok());  // self
  auto a = cluster->msg(0).connect(1);
  auto b = cluster->msg(0).connect(1);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value(), b.value());  // same endpoint object
}

TEST_F(CableCluster, WireTraceShowsTheRingProtocol) {
  // Put a protocol analyzer on the HTX cable and watch one message + the
  // eventual ack cross it: nothing but posted writes (write-only network).
  ht::LinkTracer tracer;
  cluster->machine().tccluster_links()[0]->set_tracer(&tracer);
  auto* tx = cluster->msg(0).connect(1).value();
  auto* rx = cluster->msg(1).connect(0).value();

  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    const auto payload = pattern(100);  // 2 slots
    (co_await tx->send(payload)).expect("send");
  });
  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    (co_await rx->recv()).expect("recv");
    (co_await rx->flush_acks()).expect("ack");
  });
  cluster->engine().run();

  // Two slot writes (the message) + one 8-byte ack write, all ncHT posted.
  EXPECT_EQ(tracer.count(ht::Command::kSizedWritePosted), 3u);
  EXPECT_EQ(tracer.records().size(), 3u);
  for (const auto& r : tracer.records()) {
    EXPECT_FALSE(r.coherent);
    EXPECT_EQ(r.vc, ht::VirtualChannel::kPosted);
  }
  // Slot writes are 64 B; the ack is 8 B.
  EXPECT_EQ(tracer.records()[0].size, 64u);
  EXPECT_EQ(tracer.records()[1].size, 64u);
  EXPECT_EQ(tracer.records()[2].size, 8u);
  // The ack targets the control block of node0's RX ring for peer 1.
  EXPECT_EQ(tracer.records()[2].address.value(),
            cluster->driver(0).ring(0, 1).base.value());
}

// ---- packed line-groups (see MsgSlot in msg.hpp) ----

TEST_F(CableCluster, SendPackedDeliversTaggedSubMessagesInOrder) {
  auto* tx = cluster->msg(0).connect(1).value();
  auto* rx = cluster->msg(1).connect(0).value();
  const auto a = pattern(16, 1);
  const auto b = pattern(40, 2);
  const auto c = pattern(8, 3);
  const std::vector<MsgEndpoint::PackedItem> items = {
      {a, 0x1111}, {b, 0}, {c, 0x3333}};  // tag 0 = untagged record

  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    (co_await tx->send_packed(items)).expect("send_packed");
  });
  std::vector<MsgEndpoint::TaggedMessage> got;
  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    for (int i = 0; i < 3; ++i) {
      auto r = co_await rx->recv_tagged();
      EXPECT_TRUE(r.ok());
      if (!r.ok()) co_return;
      got.push_back(std::move(r.value()));
    }
  });
  cluster->engine().run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].tag, 0x1111u);
  EXPECT_EQ(got[0].bytes, a);
  EXPECT_EQ(got[1].tag, 0u);
  EXPECT_EQ(got[1].bytes, b);
  EXPECT_EQ(got[2].tag, 0x3333u);
  EXPECT_EQ(got[2].bytes, c);
  // One group on the wire, three application messages through it.
  EXPECT_EQ(tx->stats().groups_sent, 1u);
  EXPECT_EQ(tx->stats().messages_packed, 3u);
  EXPECT_EQ(tx->stats().messages_sent, 3u);
  EXPECT_EQ(rx->stats().groups_received, 1u);
  EXPECT_EQ(rx->stats().messages_received, 3u);
}

TEST_F(CableCluster, PackedGroupStraddlesTheRingWrap) {
  auto* tx = cluster->msg(0).connect(1).value();
  auto* rx = cluster->msg(1).connect(0).value();
  // Advance both cursors to logical slot 61 of the 63-slot ring, so a
  // 3-slot group lands on logical 61,62,63 -> physical 62,63,1: the dense
  // region wraps the ring edge and must still reassemble and validate.
  constexpr int kWarmup = 61;
  const auto a = pattern(50, 1);
  const auto b = pattern(50, 2);
  const auto c = pattern(50, 3);
  const std::vector<MsgEndpoint::PackedItem> items = {{a, 7}, {b, 0}, {c, 9}};

  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    for (int i = 0; i < kWarmup; ++i) {
      (co_await tx->send({})).expect("warmup doorbell");  // 1 slot each
    }
    (co_await tx->send_packed(items)).expect("send_packed across the wrap");
  });
  std::vector<MsgEndpoint::TaggedMessage> got;
  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    for (int i = 0; i < kWarmup; ++i) (void)co_await rx->recv_discard();
    for (int i = 0; i < 3; ++i) {
      auto r = co_await rx->recv_tagged();
      EXPECT_TRUE(r.ok());
      if (!r.ok()) co_return;
      got.push_back(std::move(r.value()));
    }
  });
  cluster->engine().run();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].bytes, a);
  EXPECT_EQ(got[1].bytes, b);
  EXPECT_EQ(got[2].bytes, c);
  EXPECT_EQ(got[0].tag, 7u);
  EXPECT_EQ(got[2].tag, 9u);
  EXPECT_EQ(rx->stats().groups_received, 1u);
}

TEST_F(CableCluster, IdleRingRecvTimesOutThenStillDetects) {
  auto* tx = cluster->msg(0).connect(1).value();
  auto* rx = cluster->msg(1).connect(0).value();
  const auto payload = pattern(32, 4);
  std::vector<std::uint8_t> got;

  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    // Camp on an empty ring past the deadline: recv() reports a timeout...
    auto r = co_await rx->recv(cluster->engine().now() + Picoseconds::from_us(5.0));
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::kTimeout);
    // ...and a message arriving after the idle stretch is still detected.
    auto r2 = co_await rx->recv();
    EXPECT_TRUE(r2.ok());
    if (r2.ok()) got = std::move(r2.value());
  });
  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    co_await cluster->engine().delay(Picoseconds::from_us(10.0));
    (co_await tx->send(payload)).expect("send");
  });
  cluster->engine().run();
  EXPECT_EQ(got, payload);
}

TEST_F(CableCluster, IdleRingDetectionVariesByAtMostOnePollPeriod) {
  // A waiting receiver polls its marker word at one fixed cadence, however
  // long the ring has been idle. So across idle lengths, a one-way can only
  // vary by how long the message waits for the next poll: one period.
  constexpr Picoseconds kPollPeriod = opteron::kLoadIssue + opteron::kNbLookup +
                                      opteron::kMemReadLatency +
                                      opteron::kPollLoopOverhead;
  auto* tx = cluster->msg(0).connect(1).value();
  auto* rx = cluster->msg(1).connect(0).value();
  const auto payload = pattern(32, 5);
  Picoseconds fastest = Picoseconds::max();
  Picoseconds slowest = Picoseconds::zero();
  for (int k = 0; k < 32; ++k) {
    const Picoseconds idle = Picoseconds::from_us(5.0) + Picoseconds::from_ns(13.0) * k;
    Picoseconds sent;
    Picoseconds received;
    cluster->engine().spawn_fn([&]() -> sim::Task<void> {
      auto r = co_await rx->recv();
      EXPECT_TRUE(r.ok());
      received = cluster->engine().now();
    });
    cluster->engine().spawn_fn([&]() -> sim::Task<void> {
      co_await cluster->engine().delay(idle);
      sent = cluster->engine().now();
      (co_await tx->send(payload)).expect("send");
    });
    cluster->engine().run();
    fastest = std::min(fastest, received - sent);
    slowest = std::max(slowest, received - sent);
  }
  EXPECT_LE(slowest - fastest, kPollPeriod)
      << "one-way " << fastest.nanoseconds() << ".." << slowest.nanoseconds()
      << " ns after 5 us+ idle; poll period " << kPollPeriod.nanoseconds() << " ns";
}

TEST(TcClusterMultiNode, ChainDeliversAcrossIntermediateHops) {
  TcCluster::Options o;
  o.topology.shape = topology::ClusterShape::kChain;
  o.topology.nx = 4;
  o.topology.dram_per_chip = 16_MiB;
  auto c = TcCluster::create(o);
  ASSERT_TRUE(c.ok());
  auto cluster = std::move(c.value());
  ASSERT_TRUE(cluster->boot().ok());

  // Node 0 -> node 3: two intermediate northbridges forward the packets.
  auto* tx = cluster->msg(0).connect(3).value();
  auto* rx = cluster->msg(3).connect(0).value();
  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  std::vector<std::uint8_t> got;
  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    (co_await tx->send(payload)).expect("send");
  });
  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    auto r = co_await rx->recv();
    EXPECT_TRUE(r.ok());
    if (r.ok()) got = std::move(r.value());
  });
  cluster->engine().run();
  EXPECT_EQ(got, payload);
  // The intermediate nodes forwarded, they did not sink.
  EXPECT_GT(cluster->machine().chip(1).nb().requests_forwarded(), 0u);
  EXPECT_GT(cluster->machine().chip(2).nb().requests_forwarded(), 0u);
}

TEST(TcClusterMultiNode, RingAllPairsExchange) {
  TcCluster::Options o;
  o.topology.shape = topology::ClusterShape::kRing;
  o.topology.nx = 5;
  o.topology.dram_per_chip = 8_MiB;
  auto c = TcCluster::create(o);
  ASSERT_TRUE(c.ok());
  auto cluster = std::move(c.value());
  ASSERT_TRUE(cluster->boot().ok());
  const int n = cluster->num_nodes();

  int received = 0;
  for (int src = 0; src < n; ++src) {
    for (int dst = 0; dst < n; ++dst) {
      if (src == dst) continue;
      auto* tx = cluster->msg(src).connect(dst).value();
      auto* rx = cluster->msg(dst).connect(src).value();
      cluster->engine().spawn_fn([tx, src, dst]() -> sim::Task<void> {
        std::uint8_t payload[2] = {static_cast<std::uint8_t>(src),
                                   static_cast<std::uint8_t>(dst)};
        (co_await tx->send(payload)).expect("send");
      });
      cluster->engine().spawn_fn([rx, src, dst, &received]() -> sim::Task<void> {
        auto r = co_await rx->recv();
        EXPECT_TRUE(r.ok());
        if (r.ok()) {
          EXPECT_EQ(r.value()[0], static_cast<std::uint8_t>(src));
          EXPECT_EQ(r.value()[1], static_cast<std::uint8_t>(dst));
          ++received;
        }
      });
    }
  }
  cluster->engine().run();
  EXPECT_EQ(received, n * (n - 1));
}

TEST(TcClusterSupernode, IntraSupernodeMessagingUsesCoherentFabric) {
  TcCluster::Options o;
  o.topology.shape = topology::ClusterShape::kCable;
  o.topology.supernode_size = 2;
  o.topology.dram_per_chip = 16_MiB;
  auto c = TcCluster::create(o);
  ASSERT_TRUE(c.ok());
  auto cluster = std::move(c.value());
  ASSERT_TRUE(cluster->boot().ok());

  // Chips 0 and 1 are members of Supernode 0: messages travel the coherent
  // internal link, uncacheable stores, no write-combining.
  auto* tx = cluster->msg(0).connect(1).value();
  auto* rx = cluster->msg(1).connect(0).value();
  const std::vector<std::uint8_t> payload{9, 8, 7};
  std::vector<std::uint8_t> got;
  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    (co_await tx->send(payload)).expect("send");
  });
  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    auto r = co_await rx->recv();
    EXPECT_TRUE(r.ok());
    if (r.ok()) got = std::move(r.value());
  });
  cluster->engine().run();
  EXPECT_EQ(got, payload);

  // And cross-Supernode too (chip 0 of sn0 -> chip 2 = member 0 of sn1).
  auto* tx2 = cluster->msg(0).connect(2).value();
  auto* rx2 = cluster->msg(2).connect(0).value();
  std::vector<std::uint8_t> got2;
  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    (co_await tx2->send(payload)).expect("send");
  });
  cluster->engine().spawn_fn([&]() -> sim::Task<void> {
    auto r = co_await rx2->recv();
    EXPECT_TRUE(r.ok());
    if (r.ok()) got2 = std::move(r.value());
  });
  cluster->engine().run();
  EXPECT_EQ(got2, payload);
}

}  // namespace
}  // namespace tcc::cluster
