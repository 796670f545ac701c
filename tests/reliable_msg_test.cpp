// tcrel unit tests: ordered exactly-once delivery, sequence-number
// wraparound with a narrow wire field, duplicate suppression when a stall
// resend races the original delivery, typed backpressure, and the epoch
// sync that heals a raw-ring hole after a link blackout.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include "tccluster/cluster.hpp"
#include "tccluster/diag.hpp"
#include "tccluster/trace_export.hpp"

namespace tcc::cluster {
namespace {

std::unique_ptr<TcCluster> make_cluster(RelConfig rel = {}) {
  TcCluster::Options o;
  o.topology.shape = topology::ClusterShape::kCable;
  o.topology.nx = 2;
  o.topology.dram_per_chip = 64_MiB;
  o.boot.model_code_fetch = false;
  o.rel = rel;
  auto c = TcCluster::create(o);
  c.value()->boot().expect("boot");
  return std::move(c).value();
}

std::vector<std::uint8_t> u64_payload(std::uint64_t v) {
  std::vector<std::uint8_t> p(8);
  std::memcpy(p.data(), &v, 8);
  return p;
}

std::uint64_t u64_of(const std::vector<std::uint8_t>& p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p.data(), 8);
  return v;
}

/// Send `count` sequenced u64 payloads 1..count from chip 0 and receive
/// them on chip 1, asserting exactly-once in-order delivery.
void exchange(TcCluster& cl, int count) {
  auto* tx = cl.rel(0).connect(1).expect("connect 0->1");
  auto* rx = cl.rel(1).connect(0).expect("connect 1->0");
  bool tx_done = false, rx_done = false;

  cl.engine().spawn_fn([&, tx]() -> sim::Task<void> {
    for (std::uint64_t i = 1; i <= static_cast<std::uint64_t>(count); ++i) {
      (co_await tx->send(u64_payload(i))).expect("send");
    }
    tx_done = true;
  });
  cl.engine().spawn_fn([&, rx]() -> sim::Task<void> {
    for (std::uint64_t i = 1; i <= static_cast<std::uint64_t>(count); ++i) {
      auto r = co_await rx->recv();
      r.expect("recv");
      EXPECT_EQ(u64_of(r.value()), i) << "out-of-order or duplicated delivery";
    }
    rx_done = true;
  });
  cl.engine().run();
  EXPECT_TRUE(tx_done);
  EXPECT_TRUE(rx_done);
  EXPECT_EQ(tx->stats().sent, static_cast<std::uint64_t>(count));
  EXPECT_EQ(rx->stats().delivered, static_cast<std::uint64_t>(count));
}

TEST(TcRel, DeliversInOrderExactlyOnce) {
  auto cl = make_cluster();
  exchange(*cl, 20);
  auto* tx = cl->rel(0).connect(1).value();
  auto* rx = cl->rel(1).connect(0).value();
  EXPECT_EQ(tx->epoch(), 0u) << "a fault-free run needs no epoch sync";
  EXPECT_EQ(rx->stats().duplicates_dropped, 0u);
  EXPECT_EQ(rx->stats().gap_drops, 0u);
}

TEST(TcRel, SeqnoWrapsWithNarrowWireField) {
  // 4-bit wire seqnos wrap every 16 messages; the window must stay below
  // 2^(seq_bits-1) = 8 so modular deltas stay unambiguous.
  RelConfig rel;
  rel.seq_bits = 4;
  rel.window = 6;
  auto cl = make_cluster(rel);
  exchange(*cl, 50);
}

TEST(TcRel, StallResendDuplicatesAreSuppressed) {
  // An aggressive stall timeout against a sleepy receiver: the sender
  // resends the window several times before the receiver wakes, so the raw
  // ring holds the same messages repeatedly. The receiver must deliver each
  // exactly once and count the suppressed copies.
  RelConfig rel;
  rel.stall_timeout = Picoseconds::from_us(2.0);
  rel.stall_sync_strikes = 1 << 20;  // never escalate: this is a resend test
  auto cl = make_cluster(rel);
  auto* tx = cl->rel(0).connect(1).expect("connect 0->1");
  auto* rx = cl->rel(1).connect(0).expect("connect 1->0");
  bool flushed = false, rx_done = false;

  cl->engine().spawn_fn([&, tx]() -> sim::Task<void> {
    for (std::uint64_t i = 1; i <= 3; ++i) {
      (co_await tx->send(u64_payload(i))).expect("send");
    }
    // flush() drives progress(), which fires the stall resends while the
    // receiver sleeps, and returns once the late ACK finally lands.
    (co_await tx->flush(cl->engine().now() + Picoseconds::from_us(100.0)))
        .expect("flush");
    flushed = true;
  });
  cl->engine().spawn_fn([&, rx]() -> sim::Task<void> {
    co_await cl->engine().delay(Picoseconds::from_us(15.0));
    for (std::uint64_t i = 1; i <= 3; ++i) {
      auto r = co_await rx->recv();
      r.expect("recv");
      EXPECT_EQ(u64_of(r.value()), i);
    }
    rx_done = true;
    // Keep draining the resent copies until the sender's window empties: any
    // SUCCESSFUL recv here would be a delivered duplicate — a protocol bug.
    while (!flushed && cl->engine().now() < Picoseconds::from_us(200.0)) {
      auto r = co_await rx->recv(cl->engine().now() + Picoseconds::from_us(5.0));
      EXPECT_FALSE(r.ok()) << "duplicate delivered: " << u64_of(r.value());
    }
  });
  cl->engine().run();
  EXPECT_TRUE(flushed);
  EXPECT_TRUE(rx_done);
  EXPECT_GT(tx->stats().retransmits, 0u) << "the stall detector must have fired";
  EXPECT_GT(rx->stats().duplicates_dropped, 0u)
      << "resent copies must be suppressed, not re-delivered";
  EXPECT_EQ(rx->stats().delivered, 3u);
  EXPECT_EQ(tx->epoch(), 0u) << "plain resends must not bump the epoch";
}

TEST(TcRel, BackpressureIsTypedAndRejectsThePayload) {
  RelConfig rel;
  rel.window = 4;
  auto cl = make_cluster(rel);
  auto* tx = cl->rel(0).connect(1).expect("connect 0->1");
  bool saw_backpressure = false;

  cl->engine().spawn_fn([&, tx]() -> sim::Task<void> {
    // Nobody receives on chip 1, so acks never come back: the window fills
    // at 4 accepted messages and the fifth must fail typed, not hang.
    for (std::uint64_t i = 1; i <= 4; ++i) {
      (co_await tx->send(u64_payload(i))).expect("send into free window");
    }
    auto s = co_await tx->send(u64_payload(5),
                               cl->engine().now() + Picoseconds::from_us(10.0));
    saw_backpressure = !s.ok() && s.error().code == ErrorCode::kBackpressure;
  });
  cl->engine().run();
  EXPECT_TRUE(saw_backpressure);
  EXPECT_EQ(tx->stats().sent, 4u) << "a backpressured payload is NOT accepted";
  EXPECT_GE(tx->stats().backpressure_stalls, 1u);
  EXPECT_EQ(tx->unacked(), 4u);
}

TEST(TcRel, BackpressuredBurstsDrainInStrictSeqOrder) {
  // Regression for the drain_unsent() ordering contract (reliable.hpp):
  // buffered-but-never-transmitted messages must reach the raw ring in seq
  // order, and a later message must never be raw-sent ahead of an earlier
  // refusal. A window wider than the 63-slot raw ring makes send() accept
  // messages the ring refuses (an unsent backlog only drain_unsent() can
  // move), while bursts past the window sustain kBackpressure; a bursty
  // receiver forces repeated fill/drain cycles over both edges.
  constexpr std::uint64_t kTotal = 450;
  constexpr std::uint64_t kBurst = 150;
  RelConfig rel;
  rel.window = 100;  // > kDataSlots=63: the ring refuses before the window
  rel.stall_timeout = Picoseconds::from_us(1000.0);  // keep resends out of it
  rel.stall_sync_strikes = 1 << 20;
  auto cl = make_cluster(rel);
  auto* tx = cl->rel(0).connect(1).expect("connect 0->1");
  auto* rx = cl->rel(1).connect(0).expect("connect 1->0");
  bool tx_done = false, rx_done = false;
  std::uint64_t peak_unacked = 0;

  cl->engine().spawn_fn([&, tx]() -> sim::Task<void> {
    for (std::uint64_t i = 1; i <= kTotal; ++i) {
      for (;;) {
        // A short per-attempt deadline turns a full window into typed
        // kBackpressure (deadline-less send would wait instead).
        auto s = co_await tx->send(u64_payload(i),
                                   cl->engine().now() + Picoseconds::from_us(2.0));
        peak_unacked = std::max(peak_unacked, tx->unacked());
        if (s.ok()) break;
        EXPECT_EQ(s.error().code, ErrorCode::kBackpressure);
        co_await cl->engine().delay(Picoseconds::from_us(1.0));
      }
      if (i % kBurst == 0) {  // window edge between bursts
        co_await cl->engine().delay(Picoseconds::from_us(10.0));
      }
    }
    tx_done = true;
  });
  cl->engine().spawn_fn([&, rx]() -> sim::Task<void> {
    // Sleep through the first burst so the rel window (not just the raw
    // ring) fills and send() returns sustained kBackpressure. Accepted-but-
    // untransmitted sends each burn their 2us attempt deadline, so filling
    // window - kDataSlots = 37 extra slots takes ~75us of simulated time.
    co_await cl->engine().delay(Picoseconds::from_us(400.0));
    for (std::uint64_t i = 1; i <= kTotal; ++i) {
      auto r = co_await rx->recv();
      r.expect("recv");
      EXPECT_EQ(u64_of(r.value()), i)
          << "drain_unsent() broke seq-order transmission";
      if (i % 50 == 0) {  // bursty drain: let the sender refill the ring
        co_await cl->engine().delay(Picoseconds::from_us(5.0));
      }
    }
    rx_done = true;
  });
  cl->engine().run();
  EXPECT_TRUE(tx_done);
  EXPECT_TRUE(rx_done);
  EXPECT_EQ(rx->stats().delivered, kTotal);
  EXPECT_EQ(rx->stats().duplicates_dropped, 0u);
  EXPECT_GT(peak_unacked, static_cast<std::uint64_t>(kDataSlots))
      << "backlog never outran the raw ring: drain_unsent() was not exercised";
  EXPECT_GT(tx->stats().backpressure_stalls, 0u)
      << "bursts never filled the rel window: backpressure was not sustained";
  EXPECT_EQ(tx->epoch(), 0u) << "a fault-free drain needs no epoch sync";
  EXPECT_EQ(tx->stats().retransmits, 0u)
      << "the backlog must move via drain_unsent(), not stall resends";
  EXPECT_GT(tx->stats().groups_sent, 0u)
      << "a backlog of 8-byte messages must drain as packed line-groups";
}

TEST(TcRel, SuppressedDuplicateRepublishesASwallowedAck) {
  // Regression: a receiver whose ACK publish died on a dead link believes
  // it acked (the posted store "succeeds" locally, acked_out_ advances) and
  // every later publish path is gated on delivered_ != acked_out_. The
  // sender's stall resends then arrive as duplicates — dropped — and only
  // note_suppressed() (a suppressed packet counts toward the ACK refresh)
  // can break the livelock. Timeline: the message lands in the receiver's
  // raw ring BEFORE the blackout; the receiver only starts recv()ing INSIDE
  // it, so the delivery comes out of local memory but every ACK publish
  // (idle edge, delayed-ACK timer) dies on the dead link; the first stall
  // resend lands after the link heals.
  RelConfig rel;
  // The first stall resend must hit a LIVE link: past the blackout AND the
  // 5 us retrain (ht::kRetrainLatency) that follows it — a resend posted
  // into a training link is dropped at the egress and leaves a ring hole
  // only an epoch sync could heal, which this test deliberately disables.
  rel.stall_timeout = Picoseconds::from_us(15.0);
  rel.stall_sync_strikes = 1 << 20;  // an epoch sync must not mask the fix
  auto cl = make_cluster(rel);
  auto* tx = cl->rel(0).connect(1).expect("connect 0->1");
  auto* rx = cl->rel(1).connect(0).expect("connect 1->0");
  sim::Engine& eng = cl->engine();
  bool flushed = false;
  std::uint64_t extra_deliveries = 0;

  eng.spawn_fn([&, tx]() -> sim::Task<void> {
    (co_await tx->send(u64_payload(1))).expect("send before the blackout");
    FaultEvent ev;  // kLinkDown: swallows every receiver ACK store
    ev.at = eng.now() + Picoseconds::from_us(0.5);
    ev.duration = Picoseconds::from_us(6.0);
    ev.link = 0;
    cl->inject(ev).expect("inject");
    (co_await tx->flush(eng.now() + Picoseconds::from_us(200.0)))
        .expect("flush must complete: the duplicate-triggered ACK refresh");
    flushed = true;
  });
  eng.spawn_fn([&, rx]() -> sim::Task<void> {
    co_await eng.delay(Picoseconds::from_us(2.0));  // wake inside the blackout
    auto first = co_await rx->recv(eng.now() + Picoseconds::from_us(5.0));
    first.expect("the delivery comes out of the local ring");
    EXPECT_EQ(u64_of(first.value()), 1u);
    // Keep pumping: the stall resend must be suppressed as a duplicate
    // (never re-delivered), and its suppression must republish the ACK.
    while (!flushed && eng.now() < Picoseconds::from_us(500.0)) {
      auto r = co_await rx->recv(eng.now() + Picoseconds::from_us(5.0));
      if (r.ok()) ++extra_deliveries;
    }
  });
  eng.run();
  EXPECT_TRUE(flushed) << "sender stuck: suppressed duplicates never "
                          "refreshed the swallowed ACK";
  EXPECT_EQ(extra_deliveries, 0u) << "a resend was re-delivered";
  EXPECT_EQ(rx->stats().delivered, 1u);
  EXPECT_GT(tx->stats().retransmits, 0u) << "the stall detector must have fired";
  EXPECT_GT(rx->stats().duplicates_dropped, 0u)
      << "the resend must have arrived as a duplicate";
  EXPECT_EQ(tx->epoch(), 0u) << "recovery must come from the ACK refresh, "
                                "not an epoch sync";
  EXPECT_EQ(tx->unacked(), 0u);
}

TEST(TcRel, EpochSyncHealsARingHoleAfterBlackout) {
  // A message posted into a dead link is dropped at the egress, leaving a
  // hole in the raw ring that no resend can fill (resends land in later
  // slots; the receive cursor waits at the hole forever). Recovery must
  // escalate to an epoch sync: both sides reset the ring, the sender
  // replays, and the receiver gets the lost message exactly once.
  RelConfig rel;
  rel.stall_timeout = Picoseconds::from_us(3.0);
  rel.stall_sync_strikes = 2;
  auto cl = make_cluster(rel);
  auto* tx = cl->rel(0).connect(1).expect("connect 0->1");
  auto* rx = cl->rel(1).connect(0).expect("connect 1->0");
  sim::Engine& eng = cl->engine();
  bool tx_done = false;
  std::vector<std::uint64_t> got;

  eng.spawn_fn([&, tx]() -> sim::Task<void> {
    (co_await tx->send(u64_payload(1))).expect("send before the blackout");
    FaultEvent ev;  // kLinkDown
    ev.at = eng.now() + Picoseconds::from_us(1.0);
    ev.duration = Picoseconds::from_us(10.0);
    ev.link = 0;
    cl->inject(ev).expect("inject");
    co_await eng.delay(Picoseconds::from_us(2.0));  // inside the blackout
    (co_await tx->send(u64_payload(2))).expect("send into the dead link");
    (co_await tx->flush(eng.now() + Picoseconds::from_us(300.0))).expect("flush");
    tx_done = true;
  });
  eng.spawn_fn([&, rx]() -> sim::Task<void> {
    while (got.size() < 2 && eng.now() < Picoseconds::from_us(2000.0)) {
      auto r = co_await rx->recv(eng.now() + Picoseconds::from_us(20.0));
      if (!r.ok()) continue;  // timeout while the link is down: keep pumping
      got.push_back(u64_of(r.value()));
    }
  });
  eng.run();
  EXPECT_TRUE(tx_done);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], 1u);
  EXPECT_EQ(got[1], 2u);
  EXPECT_GE(tx->epoch(), 1u) << "healing a ring hole requires an epoch bump";
  EXPECT_EQ(tx->epoch(), rx->epoch()) << "both sides must converge on the epoch";
  EXPECT_FALSE(tx->syncing());
  EXPECT_GT(tx->stats().retransmits, 0u);
  EXPECT_EQ(rx->stats().delivered, 2u);

  // Satellite coverage: the recovery shows up in diagnostics — health_report
  // carries the per-peer rel row, the Perfetto export the instant events.
  const std::string health = health_report(*cl);
  EXPECT_NE(health.find("rel 0->1"), std::string::npos) << health;
  const std::string trace = chrome_trace_json(*cl);
  EXPECT_NE(trace.find("rel epoch bump"), std::string::npos);
  EXPECT_NE(trace.find("rel retransmit"), std::string::npos);
}

}  // namespace
}  // namespace tcc::cluster
