// tcsvc serving-stack tests: RPC framing (echo, typed errors, deadlines,
// cancellation, credit backpressure), consistent-hash shard placement, the
// replicated KV service fault-free, the open-loop load harness, and the
// acceptance scenario — a primary dies under write traffic and the replica
// is promoted within one membership epoch with no acknowledged write lost.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "tcsvc/kv.hpp"
#include "tcsvc/load.hpp"
#include "tcsvc/rpc.hpp"

namespace tcc {
namespace {

using cluster::TcCluster;

std::unique_ptr<TcCluster> make_cable() {
  TcCluster::Options o;
  o.topology.shape = topology::ClusterShape::kCable;
  o.topology.nx = 2;
  o.topology.dram_per_chip = 64_MiB;
  o.boot.model_code_fetch = false;
  auto c = TcCluster::create(o);
  c.value()->boot().expect("boot");
  return std::move(c).value();
}

/// The serving fixture topology: a 4-node ring, chip 0 the client, chips
/// 1..3 the servers (a mesh of Supernodes needs 8+ chips; the ring gives
/// the same multi-node routing for a quarter of the simulation cost).
std::unique_ptr<TcCluster> make_ring4() {
  TcCluster::Options o;
  o.topology.shape = topology::ClusterShape::kRing;
  o.topology.nx = 4;
  o.topology.dram_per_chip = 64_MiB;
  o.boot.model_code_fetch = false;
  auto c = TcCluster::create(o);
  c.value()->boot().expect("boot");
  return std::move(c).value();
}

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

// ------------------------------------------------------------- ShardMap --

TEST(ShardMap, DeterministicBalancedPlacement) {
  const std::vector<int> servers = {1, 2, 3};
  tcsvc::ShardMap a(servers, 32, 0x7cc);
  tcsvc::ShardMap b(servers, 32, 0x7cc);
  std::map<int, int> primaries;
  for (int s = 0; s < a.shards(); ++s) {
    EXPECT_EQ(a.primary(s), b.primary(s)) << "placement must be deterministic";
    EXPECT_EQ(a.replica(s), b.replica(s));
    EXPECT_NE(a.primary(s), a.replica(s)) << "replica must be a distinct chip";
    EXPECT_NE(a.replica(s), -1);
    EXPECT_EQ(a.partner_of(s, a.primary(s)), a.replica(s));
    EXPECT_EQ(a.partner_of(s, a.replica(s)), a.primary(s));
    EXPECT_EQ(a.partner_of(s, 99), -1);
    ++primaries[a.primary(s)];
  }
  // Rendezvous hashing over 32 shards: every server owns some shards.
  EXPECT_EQ(primaries.size(), servers.size());

  // A different seed moves shards; the same key still maps to one shard.
  tcsvc::ShardMap c(servers, 32, 0xdead);
  EXPECT_EQ(a.shard_of("hello"), c.shard_of("hello"));
  EXPECT_EQ(a.shard_of("hello"), a.shard_of("hello"));
}

TEST(ShardMap, SingleServerHasNoReplica) {
  tcsvc::ShardMap m({2}, 8, 1);
  for (int s = 0; s < m.shards(); ++s) {
    EXPECT_EQ(m.primary(s), 2);
    EXPECT_EQ(m.replica(s), -1);
  }
}

// ------------------------------------------------------------------ RPC --

TEST(Rpc, EchoTypedErrorsAndUnknownMethod) {
  auto cl = make_cable();
  tcsvc::RpcNode server(*cl, 1);
  tcsvc::RpcNode client(*cl, 0);
  server.handle(7, [](const tcsvc::RpcContext&, std::span<const std::uint8_t> b)
                       -> sim::Task<Result<std::vector<std::uint8_t>>> {
    co_return std::vector<std::uint8_t>(b.begin(), b.end());
  });
  server.handle(8, [](const tcsvc::RpcContext&, std::span<const std::uint8_t>)
                       -> sim::Task<Result<std::vector<std::uint8_t>>> {
    co_return make_error(ErrorCode::kOutOfRange, "nope");
  });
  std::array<int, 1> client_peer = {0};
  server.start(client_peer).expect("server start");

  bool done = false;
  cl->engine().spawn_fn([&]() -> sim::Task<void> {
    auto echoed = co_await client.call(1, 7, bytes_of("ping"));
    EXPECT_TRUE(echoed.ok());
    EXPECT_EQ(echoed.value(), bytes_of("ping"));

    auto failed = co_await client.call(1, 8, {});
    EXPECT_FALSE(failed.ok());
    if (!failed.ok()) {
      EXPECT_EQ(failed.error().code, ErrorCode::kOutOfRange);
      EXPECT_EQ(failed.error().message, "nope");
    }

    auto unknown = co_await client.call(1, 99, {});
    EXPECT_FALSE(unknown.ok());
    if (!unknown.ok()) { EXPECT_EQ(unknown.error().code, ErrorCode::kNotFound); }

    done = true;
    server.stop();
    client.stop();
  });
  cl->engine().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(client.stats().calls, 3u);
  EXPECT_EQ(client.stats().responses, 3u);
  EXPECT_EQ(server.stats().requests_served, 3u);
  EXPECT_FALSE(client.spans().empty());
}

TEST(Rpc, DeadlineTimeoutCancelsServerReply) {
  auto cl = make_cable();
  sim::Engine& engine = cl->engine();
  tcsvc::RpcNode server(*cl, 1);
  tcsvc::RpcNode client(*cl, 0);
  server.handle(5, [&engine](const tcsvc::RpcContext&, std::span<const std::uint8_t>)
                       -> sim::Task<Result<std::vector<std::uint8_t>>> {
    co_await engine.delay(Picoseconds::from_us(50.0));  // far past the caller
    co_return bytes_of("late");
  });
  std::array<int, 1> client_peer = {0};
  server.start(client_peer).expect("server start");

  bool done = false;
  cl->engine().spawn_fn([&]() -> sim::Task<void> {
    tcsvc::CallOptions opts;
    opts.deadline = engine.now() + Picoseconds::from_us(10.0);
    auto r = co_await client.call(1, 5, {}, opts);
    EXPECT_FALSE(r.ok());
    if (!r.ok()) { EXPECT_EQ(r.error().code, ErrorCode::kTimeout); }
    // Let the handler finish and notice the cancel.
    co_await engine.delay(Picoseconds::from_us(60.0));
    done = true;
    server.stop();
    client.stop();
  });
  cl->engine().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(client.stats().timeouts, 1u);
  EXPECT_EQ(client.stats().cancels_sent, 1u);
  EXPECT_EQ(server.stats().cancelled_dropped, 1u)
      << "the cancelled response must be suppressed server-side";
}

TEST(Rpc, CreditExhaustionIsTypedBackpressure) {
  auto cl = make_cable();
  sim::Engine& engine = cl->engine();
  tcsvc::RpcConfig cfg;
  cfg.request_credits = 1;
  tcsvc::RpcNode server(*cl, 1);
  tcsvc::RpcNode client(*cl, 0, cfg);
  server.handle(5, [&engine](const tcsvc::RpcContext&, std::span<const std::uint8_t>)
                       -> sim::Task<Result<std::vector<std::uint8_t>>> {
    co_await engine.delay(Picoseconds::from_us(40.0));
    co_return std::vector<std::uint8_t>{};
  });
  std::array<int, 1> client_peer = {0};
  server.start(client_peer).expect("server start");

  bool slow_done = false, starved_done = false;
  cl->engine().spawn_fn([&]() -> sim::Task<void> {
    auto r = co_await client.call(1, 5, {});  // holds the only credit 40 us
    EXPECT_TRUE(r.ok());
    slow_done = true;
  });
  cl->engine().spawn_fn([&]() -> sim::Task<void> {
    co_await engine.delay(Picoseconds::from_us(1.0));
    tcsvc::CallOptions opts;
    opts.deadline = engine.now() + Picoseconds::from_us(5.0);  // < 40 us hold
    auto r = co_await client.call(1, 5, {}, opts);
    EXPECT_FALSE(r.ok());
    if (!r.ok()) { EXPECT_EQ(r.error().code, ErrorCode::kBackpressure); }
    starved_done = true;
  });
  cl->engine().spawn_fn([&]() -> sim::Task<void> {
    co_await engine.delay(Picoseconds::from_us(100.0));
    server.stop();
    client.stop();
  });
  cl->engine().run();
  EXPECT_TRUE(slow_done);
  EXPECT_TRUE(starved_done);
  EXPECT_EQ(client.stats().credit_stalls, 1u);
  EXPECT_EQ(client.stats().backpressure, 1u);
}

TEST(Rpc, ExpiredDeadlineFailsAtAdmissionWithoutWireTraffic) {
  // Regression: a call whose deadline has ALREADY passed at admission must
  // fail typed (kTimeout) before consuming a request credit or posting
  // anything onto the wire — an expired request is a guaranteed drop at the
  // server, so transmitting it only burns ring slots and a retransmit-
  // buffer entry.
  auto cl = make_cable();
  sim::Engine& engine = cl->engine();
  tcsvc::RpcConfig cfg;
  cfg.request_credits = 1;  // a leaked credit would starve the follow-up call
  tcsvc::RpcNode server(*cl, 1);
  tcsvc::RpcNode client(*cl, 0, cfg);
  server.handle(7, [](const tcsvc::RpcContext&, std::span<const std::uint8_t> b)
                       -> sim::Task<Result<std::vector<std::uint8_t>>> {
    co_return std::vector<std::uint8_t>(b.begin(), b.end());
  });
  std::array<int, 1> client_peer = {0};
  server.start(client_peer).expect("server start");

  bool done = false;
  cl->engine().spawn_fn([&]() -> sim::Task<void> {
    co_await engine.delay(Picoseconds::from_us(2.0));
    auto* wire = cl->rel(0).connect(1).value();  // the client's rel endpoint
    const std::uint64_t sent_before = wire->stats().sent;

    tcsvc::CallOptions opts;
    opts.deadline = engine.now() - Picoseconds::from_us(1.0);  // already past
    auto r = co_await client.call(1, 7, bytes_of("dead"), opts);
    EXPECT_FALSE(r.ok());
    if (r.ok()) co_return;
    EXPECT_EQ(r.error().code, ErrorCode::kTimeout);
    EXPECT_EQ(wire->stats().sent, sent_before)
        << "an expired-at-admission call must post nothing onto the wire";

    // The only credit must still be free: a live call goes straight through.
    auto ok = co_await client.call(1, 7, bytes_of("alive"));
    EXPECT_TRUE(ok.ok()) << (ok.ok() ? "" : ok.error().to_string());
    if (ok.ok()) { EXPECT_EQ(ok.value(), bytes_of("alive")); }
    EXPECT_GT(wire->stats().sent, sent_before)
        << "sanity: the live call must flow through the observed endpoint";

    done = true;
    server.stop();
    client.stop();
  });
  cl->engine().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(client.stats().calls, 2u);
  EXPECT_EQ(client.stats().timeouts, 1u);
  EXPECT_EQ(client.stats().credit_stalls, 0u)
      << "the expired call must be refused before the credit gate, not in it";
  EXPECT_EQ(server.stats().requests_served, 1u);
}

TEST(Rpc, CancelStormReturnsEveryCredit) {
  // Regression for the credit lifecycle: a storm of calls that all miss
  // their deadline against a slow server exercises every exit path of
  // RpcNode::call — timeout after the wait, send failure, backpressure — and
  // afterwards the per-peer credit pool must be back at exactly its
  // configured size. A single leaked (or double-released) credit here
  // compounds under load until the peer wedges with kBackpressure forever.
  auto cl = make_cable();
  sim::Engine& engine = cl->engine();
  tcsvc::RpcConfig cfg;
  cfg.request_credits = 4;
  tcsvc::RpcNode server(*cl, 1);
  tcsvc::RpcNode client(*cl, 0, cfg);
  server.handle(5, [&engine](const tcsvc::RpcContext&, std::span<const std::uint8_t>)
                       -> sim::Task<Result<std::vector<std::uint8_t>>> {
    co_await engine.delay(Picoseconds::from_us(80.0));  // far past every caller
    co_return std::vector<std::uint8_t>{};
  });
  std::array<int, 1> client_peer = {0};
  server.start(client_peer).expect("server start");

  EXPECT_EQ(client.credits(1), 4) << "a never-called peer has the full pool";

  constexpr int kStorm = 12;
  int stormed = 0;
  for (int i = 0; i < kStorm; ++i) {
    cl->engine().spawn_fn([&, i]() -> sim::Task<void> {
      co_await engine.delay(Picoseconds::from_ns(static_cast<double>(i) * 500.0));
      tcsvc::CallOptions opts;
      opts.deadline = engine.now() + Picoseconds::from_us(6.0);
      auto r = co_await client.call(1, 5, {}, opts);
      EXPECT_FALSE(r.ok()) << "an 80 us handler cannot answer a 6 us deadline";
      ++stormed;
    });
  }
  // Credit-count monitor: the pool must stay within [0, configured] at every
  // observation point — a double release shows up as credits > 4 here.
  bool monitoring = true;
  cl->engine().spawn_fn([&]() -> sim::Task<void> {
    while (monitoring) {
      EXPECT_GE(client.credits(1), 0) << "credit pool went negative";
      EXPECT_LE(client.credits(1), 4) << "credit released twice";
      co_await engine.delay(Picoseconds::from_us(1.0));
    }
  });
  bool done = false;
  cl->engine().spawn_fn([&]() -> sim::Task<void> {
    // Ride past the storm AND the slow handler completions (whose responses
    // arrive for already-cancelled calls and must not double-credit).
    co_await engine.delay(Picoseconds::from_us(200.0));
    EXPECT_EQ(stormed, kStorm);
    EXPECT_EQ(client.credits(1), 4)
        << "cancel storm leaked or double-released request credits";

    // The pool is intact, so a healthy call sails through.
    auto ok = co_await client.call(1, 5, {});
    EXPECT_TRUE(ok.ok()) << (ok.ok() ? "" : ok.error().to_string());
    EXPECT_EQ(client.credits(1), 4);

    monitoring = false;
    done = true;
    server.stop();
    client.stop();
  });
  cl->engine().run();
  ASSERT_TRUE(done);
  EXPECT_GT(client.stats().timeouts, 0u);
  EXPECT_GT(client.stats().cancels_sent, 0u);
}

// ------------------------------------------------------------------- KV --

struct ServingRig {
  std::unique_ptr<TcCluster> cl;
  std::vector<std::unique_ptr<tcsvc::RpcNode>> nodes;      // by chip
  std::vector<std::unique_ptr<tcsvc::KvService>> services; // by chip; 0 = null
  std::unique_ptr<tcsvc::KvClient> client;
  tcsvc::KvConfig kv_cfg;

  void stop_all() {
    for (auto& n : nodes) n->stop();
  }
};

ServingRig make_rig(int shards = 16) {
  ServingRig rig;
  rig.cl = make_ring4();
  rig.kv_cfg.shards = shards;
  auto map = tcsvc::ShardMap::from_plan(rig.cl->plan(), {1, 2, 3}, shards);
  const int n = rig.cl->num_nodes();
  for (int chip = 0; chip < n; ++chip) {
    rig.nodes.push_back(std::make_unique<tcsvc::RpcNode>(*rig.cl, chip));
  }
  rig.services.resize(static_cast<std::size_t>(n));
  std::vector<int> all_chips;
  for (int chip = 0; chip < n; ++chip) all_chips.push_back(chip);
  for (int chip = 1; chip < n; ++chip) {
    rig.services[static_cast<std::size_t>(chip)] = std::make_unique<tcsvc::KvService>(
        *rig.cl, *rig.nodes[static_cast<std::size_t>(chip)], map, rig.kv_cfg);
    rig.services[static_cast<std::size_t>(chip)]->start();
    rig.nodes[static_cast<std::size_t>(chip)]->start(all_chips).expect("start");
  }
  rig.client = std::make_unique<tcsvc::KvClient>(*rig.cl, *rig.nodes[0],
                                                 std::move(map), rig.kv_cfg);
  return rig;
}

TEST(KvService, ServesAndReplicatesFaultFree) {
  auto rig = make_rig();
  const int keys = 40;
  bool done = false;
  rig.cl->engine().spawn_fn([&]() -> sim::Task<void> {
    for (int i = 0; i < keys; ++i) {
      const std::string key = "key" + std::to_string(i);
      auto put = co_await rig.client->put(key, bytes_of("v" + std::to_string(i)));
      EXPECT_TRUE(put.ok()) << (put.ok() ? "" : put.error().to_string());
      if (put.ok()) { EXPECT_GT(put.value(), 0u); }
    }
    for (int i = 0; i < keys; ++i) {
      const std::string key = "key" + std::to_string(i);
      auto got = co_await rig.client->get(key);
      EXPECT_TRUE(got.ok()) << (got.ok() ? "" : got.error().to_string());
      if (got.ok()) { EXPECT_EQ(got.value(), bytes_of("v" + std::to_string(i))); }
    }
    auto miss = co_await rig.client->get("no-such-key");
    EXPECT_FALSE(miss.ok());
    if (!miss.ok()) { EXPECT_EQ(miss.error().code, ErrorCode::kNotFound); }
    done = true;
    rig.stop_all();
  });
  rig.cl->engine().run();
  ASSERT_TRUE(done);

  // Synchronous replication: by put-ack time both copies exist, so every
  // key must be present on its replica too (checked via the local oracle).
  const auto& map = rig.client->shard_map();
  std::uint64_t replicated = 0;
  for (int i = 0; i < keys; ++i) {
    const std::string key = "key" + std::to_string(i);
    const int shard = map.shard_of(key);
    auto& replica = rig.services[static_cast<std::size_t>(map.replica(shard))];
    auto copy = replica->peek(key);
    ASSERT_TRUE(copy.has_value()) << key << " missing on its replica";
    EXPECT_EQ(*copy, bytes_of(strprintf("v%d", i)));
    ++replicated;
  }
  EXPECT_EQ(replicated, static_cast<std::uint64_t>(keys));
  std::uint64_t degraded = 0, rejects = 0;
  for (int chip = 1; chip <= 3; ++chip) {
    degraded += rig.services[static_cast<std::size_t>(chip)]->stats().degraded_writes;
    rejects += rig.services[static_cast<std::size_t>(chip)]->stats().not_primary_rejects;
  }
  EXPECT_EQ(degraded, 0u) << "no degraded acks on a healthy cluster";
  EXPECT_EQ(rejects, 0u) << "client routing should always hit the primary";
}

TEST(LoadGenerator, OpenLoopRunCompletesEverythingFaultFree) {
  auto rig = make_rig();
  tcsvc::LoadConfig cfg;
  cfg.offered_rps = 150'000.0;
  cfg.duration = Picoseconds::from_us(400.0);
  cfg.keys = 64;
  cfg.value_bytes = 64;
  cfg.request_deadline = Picoseconds::from_us(250.0);
  tcsvc::LoadGenerator gen(*rig.cl, *rig.client, cfg);
  bool done = false;
  rig.cl->engine().spawn_fn([&]() -> sim::Task<void> {
    (co_await gen.prefill()).expect("prefill");
    co_await gen.run();
    done = true;
    rig.stop_all();
  });
  rig.cl->engine().run();
  ASSERT_TRUE(done);

  const tcsvc::LoadReport& rep = gen.report();
  EXPECT_GT(rep.offered, 20u) << "400 us at 150 krps should offer ~60 requests";
  EXPECT_EQ(rep.failed, 0u) << "a fault-free run must complete every request";
  EXPECT_EQ(rep.completed, rep.offered);
  EXPECT_GT(rep.goodput_rps(), 0.0);
  Samples lat = rep.latency_ns;
  EXPECT_GT(lat.percentile(50.0), 0.0);
  EXPECT_GE(lat.percentile(99.0), lat.percentile(50.0));
  EXPECT_TRUE(rep.within_slo(cfg.slo));
}

// The acceptance scenario: a primary dies under sustained writes; the
// keepalive verdict promotes its replica within one membership epoch and
// every acknowledged write survives.
TEST(KvFailover, PromotesReplicaWithinOneEpochNoAckedWriteLost) {
  auto rig = make_rig();
  sim::Engine& engine = rig.cl->engine();
  rig.cl->start_keepalives(Picoseconds::from_us(2.0), Picoseconds::from_us(10.0));

  const auto& map = rig.client->shard_map();
  // A key whose primary we will kill; dead_chip = its primary.
  const std::string hot_key = "failover-key";
  const int hot_shard = map.shard_of(hot_key);
  const int dead_chip = map.primary(hot_shard);
  const int promoted = map.replica(hot_shard);

  std::map<std::string, std::vector<std::uint8_t>> acked;  // key -> last acked value
  bool resumed_after_fault = false;
  bool done = false;

  rig.cl->engine().spawn_fn([&]() -> sim::Task<void> {
    // Phase 1: healthy writes across many keys (incl. the hot one).
    for (int i = 0; i < 24; ++i) {
      const std::string key = (i % 3 == 0) ? hot_key : "key" + std::to_string(i);
      const auto value = bytes_of("pre" + std::to_string(i));
      auto r = co_await rig.client->put(key, value);
      EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().to_string());
      if (r.ok()) acked[key] = value;
    }

    // Kill the hot shard's primary: its driver stops heartbeating and its
    // serving pumps halt — the chip is gone as far as peers can tell.
    rig.cl->driver(dead_chip).set_hung(true);
    rig.nodes[static_cast<std::size_t>(dead_chip)]->stop();
    const Picoseconds fault_at = engine.now();
    const std::uint64_t epoch_before =
        rig.nodes[0]->endpoint(promoted)->epoch();

    // Phase 2: keep writing through the blackout. Each op gets a generous
    // budget so it can ride out detection (~keepalive timeout) + reroute.
    for (int i = 0; i < 12; ++i) {
      const std::string key = (i % 2 == 0) ? hot_key : "post" + std::to_string(i);
      const auto value = bytes_of("post" + std::to_string(i));
      auto r = co_await rig.client->put(key, value,
                                        engine.now() + Picoseconds::from_us(400.0));
      if (r.ok()) {
        acked[key] = value;
        if (map.primary(map.shard_of(key)) == dead_chip) resumed_after_fault = true;
      }
    }
    EXPECT_TRUE(resumed_after_fault)
        << "writes to the dead primary's shards must fail over to the replica";

    // "Within one membership epoch": the fault cost the client/replica pair
    // at most one epoch bump, and detection took about one keepalive
    // timeout, not a string of sync rounds.
    const std::uint64_t epoch_after = rig.nodes[0]->endpoint(promoted)->epoch();
    EXPECT_LE(epoch_after - epoch_before, 1u);
    EXPECT_LT((engine.now() - fault_at).microseconds(), 400.0);

    done = true;
    rig.cl->stop_keepalives();
    rig.stop_all();
  });
  rig.cl->engine().run();
  ASSERT_TRUE(done);

  // The replica was promoted and served.
  EXPECT_GT(rig.services[static_cast<std::size_t>(promoted)]->stats().failover_serves, 0u);

  // No acknowledged write lost: every acked (key, value) is present on the
  // node now acting as the key's primary.
  for (const auto& [key, value] : acked) {
    const int shard = map.shard_of(key);
    int owner = map.primary(shard);
    if (owner == dead_chip) owner = map.replica(shard);
    auto copy = rig.services[static_cast<std::size_t>(owner)]->peek(key);
    ASSERT_TRUE(copy.has_value()) << key << " lost after failover";
    EXPECT_EQ(*copy, value) << key << " has a stale value after failover";
  }
}

// --------------------------------------------------------- RoutedCaller --

// The retry loop every serving client shares, driven by handlers that answer
// a scripted error code: semantic codes are final after one attempt; the
// availability codes alternate primary -> replica, back off between tries,
// and stop before the operation deadline.
TEST(RoutedCaller, FinalCodesStopAtOnceOthersAlternateUntilTheDeadline) {
  auto cl = make_ring4();
  sim::Engine& engine = cl->engine();
  constexpr std::uint16_t kScripted = 99;
  const Picoseconds backoff = Picoseconds::from_us(2.0);
  ErrorCode scripted = ErrorCode::kNotFound;
  std::vector<std::pair<int, Picoseconds>> attempts;  // (chip, handler start)

  const std::vector<int> all_chips = {0, 1, 2, 3};
  std::vector<std::unique_ptr<tcsvc::RpcNode>> nodes;
  for (int chip : all_chips) {
    nodes.push_back(std::make_unique<tcsvc::RpcNode>(*cl, chip));
    if (chip == 0) continue;
    nodes.back()->handle(kScripted, [&, chip](const tcsvc::RpcContext&,
                                              std::span<const std::uint8_t>)
                                        -> sim::Task<Result<std::vector<std::uint8_t>>> {
      attempts.emplace_back(chip, engine.now());
      co_return make_error(scripted, "scripted");
    });
    nodes.back()->start(all_chips).expect("start");
  }
  const tcsvc::ShardMap map({1, 2, 3}, 4, 0x7cc);
  const int primary = map.primary(0);
  const int replica = map.replica(0);
  tcsvc::RouteStats stats;
  tcsvc::RoutedCaller caller(*cl, *nodes[0], map, Picoseconds::from_us(500.0),
                             Picoseconds::from_us(60.0), backoff, stats);

  struct Case {
    ErrorCode code;
    bool final;
  };
  const Case cases[] = {
      {ErrorCode::kNotFound, true},           {ErrorCode::kInvalidArgument, true},
      {ErrorCode::kResourceExhausted, true},  {ErrorCode::kProtocolViolation, true},
      {ErrorCode::kUnavailable, false},       {ErrorCode::kTimeout, false},
      {ErrorCode::kFailedPrecondition, false},
  };
  bool done = false;
  engine.spawn_fn([&]() -> sim::Task<void> {
    for (const Case& c : cases) {
      SCOPED_TRACE(to_string(c.code));
      scripted = c.code;
      attempts.clear();
      const tcsvc::RouteStats before = stats;
      const Picoseconds deadline = engine.now() + Picoseconds::from_us(40.0);
      auto r = co_await caller.call(kScripted, 0, {}, deadline);
      EXPECT_FALSE(r.ok());
      if (!r.ok()) { EXPECT_EQ(r.error().code, c.code); }
      const std::uint64_t tries = attempts.size();
      EXPECT_EQ(stats.retries - before.retries, tries - 1);
      if (c.final) {
        EXPECT_EQ(tries, 1u) << "a semantic outcome must not be retried";
        continue;
      }
      EXPECT_GE(tries, 3u);
      for (std::size_t i = 0; i < attempts.size(); ++i) {
        EXPECT_EQ(attempts[i].first, i % 2 == 0 ? primary : replica) << "attempt " << i;
        EXPECT_LT(attempts[i].second.count(), deadline.count());
        if (i > 0) {
          EXPECT_GE((attempts[i].second - attempts[i - 1].second).count(),
                    backoff.count());
        }
      }
      EXPECT_EQ(stats.failover_routes - before.failover_routes, tries / 2);
      EXPECT_LE(engine.now().count(), deadline.count());
    }
    done = true;
    for (auto& n : nodes) n->stop();
  });
  engine.run();
  ASSERT_TRUE(done);
}

}  // namespace
}  // namespace tcc
