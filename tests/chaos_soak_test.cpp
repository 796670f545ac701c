// Chaos soak: a seeded fault schedule covering every FaultEvent kind hammers
// a 4-node ring while every node streams sequenced counters to its successor
// over tcrel. Success is exactly-once, in-order delivery of every message on
// every pair, epoch bumps where peers died and rejoined, and a healthy
// cluster at the end — for ANY seed.
//
// ctest labels this binary "soak": CI runs it in a dedicated sanitizer job
// and the tier-1 sweep excludes it (ctest -LE soak).
//
// Override the seed list with TCC_SOAK_SEEDS=1234,99 for a reproduction run.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "tccluster/cluster.hpp"
#include "tccluster/diag.hpp"
#include "tcsvc/kv.hpp"
#include "tcsvc/load.hpp"
#include "tcsvc/membership.hpp"
#include "tcsvc/rpc.hpp"
#include "tcstore/store.hpp"

namespace tcc::cluster {
namespace {

constexpr int kNodes = 4;
constexpr std::uint64_t kMessagesPerPair = 30;

std::vector<std::uint64_t> soak_seeds() {
  if (const char* env = std::getenv("TCC_SOAK_SEEDS")) {
    std::vector<std::uint64_t> seeds;
    std::string s(env);
    for (std::size_t pos = 0; pos < s.size();) {
      const std::size_t comma = s.find(',', pos);
      const std::string tok = s.substr(pos, comma - pos);
      if (!tok.empty()) seeds.push_back(std::strtoull(tok.c_str(), nullptr, 0));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
    if (!seeds.empty()) return seeds;
  }
  return {0x7a11, 0xbee5};
}

/// One scripted fault of every kind, strike times and victims drawn from the
/// seed. Durations are long enough (>= 2x keepalive timeout) that hangs and
/// warm resets produce actual death verdicts, so rejoin runs the epoch
/// handshake rather than riding out the blackout.
std::vector<FaultEvent> fault_schedule(TcCluster& cl, Rng& rng) {
  std::vector<int> external_wires;
  for (std::size_t i = 0; i < cl.plan().wires().size(); ++i) {
    if (cl.plan().wires()[i].tccluster) external_wires.push_back(static_cast<int>(i));
  }
  const auto& chips = cl.plan().chips();
  std::vector<FaultEvent> script;
  Picoseconds t = Picoseconds::from_us(60.0);
  const FaultEvent::Kind kinds[] = {
      FaultEvent::Kind::kLinkDown, FaultEvent::Kind::kCrcStorm,
      FaultEvent::Kind::kEndpointHang, FaultEvent::Kind::kWarmReset,
      FaultEvent::Kind::kLinkDown, FaultEvent::Kind::kEndpointHang,
  };
  for (const FaultEvent::Kind kind : kinds) {
    FaultEvent ev;
    ev.kind = kind;
    ev.at = t + Picoseconds::from_us(static_cast<double>(rng.next_below(15)));
    ev.duration = Picoseconds::from_us(20.0 + static_cast<double>(rng.next_below(10)));
    switch (kind) {
      case FaultEvent::Kind::kLinkDown:
        ev.link = external_wires[rng.next_below(external_wires.size())];
        break;
      case FaultEvent::Kind::kCrcStorm:
        ev.link = external_wires[rng.next_below(external_wires.size())];
        ev.fault_rate = 0.2 + 0.05 * static_cast<double>(rng.next_below(8));
        break;
      case FaultEvent::Kind::kEndpointHang:
        ev.chip = static_cast<int>(rng.next_below(kNodes));
        break;
      case FaultEvent::Kind::kWarmReset:
        ev.supernode = chips[rng.next_below(chips.size())].supernode;
        break;
    }
    script.push_back(ev);
    t = t + Picoseconds::from_us(45.0);  // let each fault's recovery settle
  }
  return script;
}

void run_soak(std::uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  TcCluster::Options o;
  o.topology.shape = topology::ClusterShape::kRing;
  o.topology.nx = kNodes;
  o.topology.dram_per_chip = 64_MiB;
  o.boot.model_code_fetch = false;
  o.rel.stall_timeout = Picoseconds::from_us(8.0);
  o.rel.stall_sync_strikes = 2;
  auto cl = TcCluster::create(o).value();
  cl->boot().expect("boot");
  sim::Engine& eng = cl->engine();
  cl->start_keepalives(Picoseconds::from_us(2.0), Picoseconds::from_us(10.0));

  Rng rng(seed);
  for (const FaultEvent& ev : fault_schedule(*cl, rng)) {
    cl->inject(ev).expect("arm scripted fault");
  }

  // Every node streams to its ring successor; pumps keep recovery moving on
  // both sides of every pair even while the app coroutines are blocked.
  std::vector<ReliableEndpoint*> eps;
  bool send_done[kNodes] = {};
  std::vector<std::uint64_t> got[kNodes];  // got[i]: payloads i received
  for (int i = 0; i < kNodes; ++i) {
    auto* tx = cl->rel(i).connect((i + 1) % kNodes).expect("connect tx");
    auto* rx = cl->rel(i).connect((i + kNodes - 1) % kNodes).expect("connect rx");
    tx->start_pump();
    rx->start_pump();
    eps.push_back(tx);
    eps.push_back(rx);

    eng.spawn_fn([&, i, tx]() -> sim::Task<void> {
      Rng jitter(seed ^ (0x5111ull * static_cast<std::uint64_t>(i + 1)));
      co_await eng.delay(Picoseconds::from_ns(static_cast<double>(i) * 700.0));
      for (std::uint64_t m = 1; m <= kMessagesPerPair; ++m) {
        const std::uint64_t value = static_cast<std::uint64_t>(i) * 1000 + m;
        std::uint8_t buf[8];
        std::memcpy(buf, &value, 8);
        (co_await tx->send(buf)).expect("soak send");
        // ~9 us average pacing: the 30-message stream spans the whole fault
        // schedule, so every fault kind strikes mid-traffic.
        co_await eng.delay(Picoseconds::from_ns(
            6000.0 + static_cast<double>(jitter.next_below(6000))));
      }
      send_done[i] = true;
    });
    eng.spawn_fn([&, i, rx]() -> sim::Task<void> {
      const Picoseconds watchdog = Picoseconds::from_us(4000.0);
      while (got[i].size() < kMessagesPerPair && eng.now() < watchdog) {
        auto r = co_await rx->recv(eng.now() + Picoseconds::from_us(25.0));
        if (!r.ok()) continue;  // timeout during an outage: keep pumping
        std::uint64_t v = 0;
        std::memcpy(&v, r.value().data(), 8);
        got[i].push_back(v);
      }
    });
  }

  eng.run_until(Picoseconds::from_us(4100.0));

  // Exactly-once, in-order: each receiver saw precisely prev*1000 + 1..30.
  for (int i = 0; i < kNodes; ++i) {
    EXPECT_TRUE(send_done[i]) << "sender " << i << " wedged";
    const int prev = (i + kNodes - 1) % kNodes;
    ASSERT_EQ(got[i].size(), kMessagesPerPair)
        << "receiver " << i << ": " << health_report(*cl);
    for (std::uint64_t m = 1; m <= kMessagesPerPair; ++m) {
      ASSERT_EQ(got[i][m - 1], static_cast<std::uint64_t>(prev) * 1000 + m)
          << "receiver " << i << " message " << m << " lost/duplicated/reordered";
    }
  }

  // The hang/warm-reset faults outlast the keepalive timeout, so at least
  // one pair must have run the rejoin handshake; and nobody may still be
  // mid-sync once the streams completed.
  std::uint64_t epoch_bumps = 0;
  for (ReliableEndpoint* ep : eps) {
    epoch_bumps += ep->stats().epoch_bumps;
    EXPECT_FALSE(ep->syncing());
    EXPECT_EQ(ep->unacked(), 0u);
  }
  EXPECT_GT(epoch_bumps, 0u) << health_report(*cl);
  EXPECT_TRUE(cl->driver(0).dead_peers().empty()) << health_report(*cl);

  cl->stop_keepalives();
  for (int i = 0; i < kNodes; ++i) cl->rel(i).stop_pumps();
  eng.run();  // drain the pumps' final beats
}

TEST(ChaosSoak, ExactlyOnceInOrderUnderScriptedChaos) {
  for (const std::uint64_t seed : soak_seeds()) run_soak(seed);
}

// ------------------------------------------------------- rebalance soak --

// Elastic-membership soak: a closed-loop Zipfian writer hammers the KV tier
// while the cluster lives through the full membership lifecycle — a node
// joins and takes shards, a server is permanently killed (auto-heal evicts
// it and re-seeds its replicas), and the dead node warm-rejoins into a new
// epoch. Success is zero lost acknowledged writes: the final committed
// placement holds every acked key on BOTH pair members, at a write counter
// no older than the last acked one.
void run_rebalance_soak(std::uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  TcCluster::Options o;
  o.topology.shape = topology::ClusterShape::kRing;
  o.topology.nx = 6;
  o.topology.dram_per_chip = 64_MiB;
  o.boot.model_code_fetch = false;
  auto cl = TcCluster::create(o).value();
  cl->boot().expect("boot");
  sim::Engine& eng = cl->engine();
  cl->start_keepalives(Picoseconds::from_us(2.0), Picoseconds::from_us(10.0));

  const std::vector<int> participants = {0, 1, 2, 3, 4};
  const int n = cl->num_nodes();
  auto map = tcsvc::ShardMap::from_plan(cl->plan(), {1, 2, 3}, 16);
  std::vector<std::unique_ptr<tcsvc::RpcNode>> nodes(static_cast<std::size_t>(n));
  std::vector<std::unique_ptr<tcsvc::KvService>> services(static_cast<std::size_t>(n));
  std::vector<std::unique_ptr<tcsvc::MembershipAgent>> agents(static_cast<std::size_t>(n));
  for (int chip : participants) {
    nodes[static_cast<std::size_t>(chip)] = std::make_unique<tcsvc::RpcNode>(*cl, chip);
  }
  for (int chip : {1, 2, 3, 4}) {
    services[static_cast<std::size_t>(chip)] = std::make_unique<tcsvc::KvService>(
        *cl, *nodes[static_cast<std::size_t>(chip)], map);
    services[static_cast<std::size_t>(chip)]->start();
  }
  auto client = std::make_unique<tcsvc::KvClient>(*cl, *nodes[0], map);
  for (int chip : participants) {
    auto& agent = agents[static_cast<std::size_t>(chip)];
    agent = std::make_unique<tcsvc::MembershipAgent>(
        *cl, *nodes[static_cast<std::size_t>(chip)], map);
    agent->start();
    agent->attach_service(services[static_cast<std::size_t>(chip)].get());
  }
  agents[0]->attach_client(client.get());
  auto coord = std::make_unique<tcsvc::MembershipCoordinator>(*cl, *agents[0],
                                                              participants);
  coord->start();
  for (int chip : participants) {
    nodes[static_cast<std::size_t>(chip)]->start(participants).expect("start");
  }

  // The acked-write ledger: key -> counter of the last ACKED write. Values
  // carry a global write counter, so an ambiguous timeout (applied but not
  // acked) can only leave the store NEWER than the ledger, never older.
  std::map<std::string, std::uint64_t> acked;
  std::uint64_t write_seq = 0;
  bool stop_writer = false;
  bool writer_done = false;

  eng.spawn_fn([&]() -> sim::Task<void> {
    Rng rng(seed ^ 0x2eba1aceull);
    tcsvc::ZipfianGenerator zipf(48, 0.9);
    while (!stop_writer) {
      const std::string key = "k" + std::to_string(zipf.next(rng));
      const std::uint64_t counter = ++write_seq;
      std::uint8_t buf[8];
      std::memcpy(buf, &counter, 8);
      auto r = co_await client->put(key, buf,
                                    eng.now() + Picoseconds::from_us(400.0));
      if (r.ok()) acked[key] = counter;
      co_await eng.delay(Picoseconds::from_ns(
          500.0 + static_cast<double>(rng.next_below(2000))));
    }
    writer_done = true;
  });

  bool orchestrated = false;
  eng.spawn_fn([&]() -> sim::Task<void> {
    Rng rng(seed ^ 0x0c4e57ull);
    const int victim = 1 + static_cast<int>(rng.next_below(3));  // a founding server

    // Phase 1: live join under load.
    co_await eng.delay(Picoseconds::from_us(50.0));
    Status join = co_await agents[4]->request_join(0);
    EXPECT_TRUE(join.ok()) << (join.ok() ? "" : join.error().to_string());
    EXPECT_EQ(agents[0]->epoch(), 1u);

    // Phase 2: permanent kill; auto-heal must evict and re-seed.
    co_await eng.delay(Picoseconds::from_us(50.0));
    cl->driver(victim).set_hung(true);
    nodes[static_cast<std::size_t>(victim)]->stop();
    const Picoseconds evict_deadline = eng.now() + Picoseconds::from_us(2000.0);
    while (agents[0]->epoch() < 2 && eng.now() < evict_deadline) {
      co_await eng.delay(Picoseconds::from_us(10.0));
    }
    EXPECT_EQ(agents[0]->epoch(), 2u) << "auto-heal eviction never committed";

    // Phase 3: warm-reset rejoin of the killed node into a fresh epoch.
    co_await eng.delay(Picoseconds::from_us(50.0));
    cl->driver(victim).set_hung(false);
    co_await eng.delay(Picoseconds::from_us(30.0));  // beats resume, peers re-admit
    nodes[static_cast<std::size_t>(victim)]->resume();
    Status rejoin = co_await agents[static_cast<std::size_t>(victim)]->request_join(0);
    EXPECT_TRUE(rejoin.ok()) << (rejoin.ok() ? "" : rejoin.error().to_string());
    EXPECT_EQ(agents[0]->epoch(), 3u);

    // Let the writer see the final placement, then wind down.
    co_await eng.delay(Picoseconds::from_us(50.0));
    stop_writer = true;
    co_await eng.delay(Picoseconds::from_us(500.0));  // drain the last put
    orchestrated = true;
    cl->stop_keepalives();
    for (auto& node : nodes) {
      if (node) node->stop();
    }
  });

  eng.run();
  ASSERT_TRUE(orchestrated) << health_report(*cl);
  ASSERT_TRUE(writer_done);
  EXPECT_EQ(coord->stats().joins, 2u);
  EXPECT_EQ(coord->stats().evictions, 1u);
  EXPECT_EQ(coord->stats().failed, 0u) << health_report(*cl);
  EXPECT_GT(acked.size(), 8u) << "writer made no progress";

  // Zero lost acknowledged writes: both members of every key's final pair
  // hold the key at least as new as the last acked counter.
  const tcsvc::ShardMap& final_map = agents[0]->map();
  for (const auto& [key, counter] : acked) {
    const int shard = final_map.shard_of(key);
    for (const int owner : {final_map.primary(shard), final_map.replica(shard)}) {
      ASSERT_GE(owner, 0);
      const auto& svc = services[static_cast<std::size_t>(owner)];
      ASSERT_TRUE(svc != nullptr);
      const auto value = svc->peek(key);
      ASSERT_TRUE(value.has_value())
          << key << " lost on chip " << owner << " (acked counter " << counter
          << ")\n" << agents[0]->placement_report();
      ASSERT_EQ(value->size(), 8u);
      std::uint64_t stored = 0;
      std::memcpy(&stored, value->data(), 8);
      EXPECT_GE(stored, counter)
          << key << " on chip " << owner << " rolled back past an acked write";
    }
  }
}

TEST(ChaosSoak, ElasticMembershipNoAckedWriteLost) {
  for (const std::uint64_t seed : soak_seeds()) run_rebalance_soak(seed);
}

// ----------------------------------------------------------- store soak --

// Atomic-op soak: closed-loop incr and CAS writers hammer the store tier
// through the full membership lifecycle (live join, permanent kill with
// auto-heal, warm rejoin). Atomic ops raise the bar over blind puts: a
// retried increment that re-executes is a DOUBLE apply, so the acked ledger
// brackets the final counters from both sides — every copy must hold
//   acked <= stored <= acked + ambiguous
// per key, and CAS success versions must be strictly monotone per key.
void run_store_soak(std::uint64_t seed) {
  SCOPED_TRACE("seed=" + std::to_string(seed));
  TcCluster::Options o;
  o.topology.shape = topology::ClusterShape::kRing;
  o.topology.nx = 6;
  o.topology.dram_per_chip = 64_MiB;
  o.boot.model_code_fetch = false;
  auto cl = TcCluster::create(o).value();
  cl->boot().expect("boot");
  sim::Engine& eng = cl->engine();
  cl->start_keepalives(Picoseconds::from_us(2.0), Picoseconds::from_us(10.0));

  const std::vector<int> participants = {0, 1, 2, 3, 4};
  const int n = cl->num_nodes();
  auto map = tcsvc::ShardMap::from_plan(cl->plan(), {1, 2, 3}, 16);
  std::vector<std::unique_ptr<tcsvc::RpcNode>> nodes(static_cast<std::size_t>(n));
  std::vector<std::unique_ptr<tcsvc::KvService>> services(static_cast<std::size_t>(n));
  std::vector<std::unique_ptr<tcstore::StoreService>> stores(
      static_cast<std::size_t>(n));
  std::vector<std::unique_ptr<tcsvc::MembershipAgent>> agents(static_cast<std::size_t>(n));
  for (int chip : participants) {
    nodes[static_cast<std::size_t>(chip)] = std::make_unique<tcsvc::RpcNode>(*cl, chip);
  }
  for (int chip : {1, 2, 3, 4}) {
    const auto i = static_cast<std::size_t>(chip);
    services[i] = std::make_unique<tcsvc::KvService>(*cl, *nodes[i], map);
    services[i]->start();
    stores[i] = std::make_unique<tcstore::StoreService>(*cl, *nodes[i], *services[i]);
    stores[i]->start();
  }
  // One client instance for BOTH writers: the (client = chip, seq) identity
  // space must be issued by a single sequencer or duplicates alias.
  auto client = std::make_unique<tcstore::StoreClient>(*cl, *nodes[0], map,
                                                       tcstore::StoreConfig{});
  for (int chip : participants) {
    auto& agent = agents[static_cast<std::size_t>(chip)];
    agent = std::make_unique<tcsvc::MembershipAgent>(
        *cl, *nodes[static_cast<std::size_t>(chip)], map);
    agent->start();
    agent->attach_service(services[static_cast<std::size_t>(chip)].get());
    if (stores[static_cast<std::size_t>(chip)]) {
      agent->attach_aux(stores[static_cast<std::size_t>(chip)].get());
    }
  }
  client->set_membership(agents[0].get());
  auto coord = std::make_unique<tcsvc::MembershipCoordinator>(*cl, *agents[0],
                                                              participants);
  coord->start();
  for (int chip : participants) {
    nodes[static_cast<std::size_t>(chip)]->start(participants).expect("start");
  }

  // Ledgers. `acked` counts increments whose ok-response reached the client;
  // `ambiguous` counts attempts with a non-ok outcome (timeout mid-blackout,
  // exhausted deadline) that MAY have applied — never typed semantic errors,
  // which this workload cannot produce.
  constexpr int kIncrKeys = 24;
  std::map<std::string, std::uint64_t> acked, ambiguous;
  bool stop_writers = false;
  bool incr_done = false, cas_done = false;

  eng.spawn_fn([&]() -> sim::Task<void> {
    Rng rng(seed ^ 0x57c0ffeeull);
    while (!stop_writers) {
      const std::string key = "c" + std::to_string(rng.next_below(kIncrKeys));
      auto r = co_await client->incr(key, 1, Picoseconds{0},
                                     eng.now() + Picoseconds::from_us(400.0));
      if (r.ok()) {
        ++acked[key];
      } else {
        ++ambiguous[key];
      }
      co_await eng.delay(Picoseconds::from_ns(
          800.0 + static_cast<double>(rng.next_below(2500))));
    }
    incr_done = true;
  });

  constexpr int kCasKeys = 4;
  std::uint64_t last_success[kCasKeys] = {};
  std::uint64_t known[kCasKeys] = {};
  std::uint64_t cas_successes = 0;
  eng.spawn_fn([&]() -> sim::Task<void> {
    Rng rng(seed ^ 0xca5ca5ull);
    std::uint64_t attempt = 0;
    while (!stop_writers) {
      const int k = static_cast<int>(attempt % kCasKeys);
      ++attempt;
      std::uint8_t buf[8];
      std::memcpy(buf, &attempt, 8);
      auto r = co_await client->cas("cas" + std::to_string(k), known[k], buf,
                                    Picoseconds{0},
                                    eng.now() + Picoseconds::from_us(400.0));
      if (r.ok()) {
        if (r.value().success) {
          EXPECT_GT(r.value().version, last_success[k])
              << "cas" << k << ": success versions must be strictly monotone";
          last_success[k] = r.value().version;
          known[k] = r.value().version;
          ++cas_successes;
        } else {
          // Conflict: a previous ambiguous attempt really did apply. Adopt
          // the version that won and move on.
          EXPECT_GE(r.value().version, last_success[k])
              << "cas" << k << ": conflict reported a version that rolled back";
          known[k] = r.value().version;
        }
      }
      co_await eng.delay(Picoseconds::from_ns(
          1200.0 + static_cast<double>(rng.next_below(3000))));
    }
    cas_done = true;
  });

  bool orchestrated = false;
  eng.spawn_fn([&]() -> sim::Task<void> {
    Rng rng(seed ^ 0x0c4e57ull);
    const int victim = 1 + static_cast<int>(rng.next_below(3));

    co_await eng.delay(Picoseconds::from_us(50.0));
    Status join = co_await agents[4]->request_join(0);
    EXPECT_TRUE(join.ok()) << (join.ok() ? "" : join.error().to_string());
    EXPECT_EQ(agents[0]->epoch(), 1u);

    co_await eng.delay(Picoseconds::from_us(50.0));
    cl->driver(victim).set_hung(true);
    nodes[static_cast<std::size_t>(victim)]->stop();
    const Picoseconds evict_deadline = eng.now() + Picoseconds::from_us(2000.0);
    while (agents[0]->epoch() < 2 && eng.now() < evict_deadline) {
      co_await eng.delay(Picoseconds::from_us(10.0));
    }
    EXPECT_EQ(agents[0]->epoch(), 2u) << "auto-heal eviction never committed";

    co_await eng.delay(Picoseconds::from_us(50.0));
    cl->driver(victim).set_hung(false);
    co_await eng.delay(Picoseconds::from_us(30.0));
    nodes[static_cast<std::size_t>(victim)]->resume();
    Status rejoin = co_await agents[static_cast<std::size_t>(victim)]->request_join(0);
    EXPECT_TRUE(rejoin.ok()) << (rejoin.ok() ? "" : rejoin.error().to_string());
    EXPECT_EQ(agents[0]->epoch(), 3u);

    co_await eng.delay(Picoseconds::from_us(50.0));
    stop_writers = true;
    co_await eng.delay(Picoseconds::from_us(500.0));  // drain in-flight ops
    orchestrated = true;
    cl->stop_keepalives();
    for (auto& node : nodes) {
      if (node) node->stop();
    }
  });

  eng.run();
  ASSERT_TRUE(orchestrated) << health_report(*cl);
  ASSERT_TRUE(incr_done);
  ASSERT_TRUE(cas_done);
  EXPECT_EQ(coord->stats().joins, 2u);
  EXPECT_EQ(coord->stats().evictions, 1u);
  EXPECT_EQ(coord->stats().failed, 0u) << health_report(*cl);

  std::uint64_t total_acked = 0;
  for (const auto& [key, count] : acked) total_acked += count;
  EXPECT_GT(total_acked, 30u) << "incr writer made no progress";
  EXPECT_GT(cas_successes, 5u) << "cas writer made no progress";

  // The acceptance bracket: on BOTH members of every key's final pair, the
  // stored counter sits in [acked, acked + ambiguous]. Below = an acked
  // increment was lost (across failover or resharding); above = a retry
  // double-applied.
  const tcsvc::ShardMap& final_map = agents[0]->map();
  for (int k = 0; k < kIncrKeys; ++k) {
    const std::string key = strprintf("c%d", k);
    const std::uint64_t lo = acked.count(key) ? acked[key] : 0;
    const std::uint64_t hi = lo + (ambiguous.count(key) ? ambiguous[key] : 0);
    if (lo == 0 && hi == 0) continue;  // never targeted under this seed
    const int shard = final_map.shard_of(key);
    for (const int owner : {final_map.primary(shard), final_map.replica(shard)}) {
      ASSERT_GE(owner, 0);
      const auto& svc = services[static_cast<std::size_t>(owner)];
      ASSERT_TRUE(svc != nullptr);
      const auto value = svc->peek(key);
      if (!value.has_value()) {
        ASSERT_EQ(lo, 0u) << key << " lost on chip " << owner << " ("
                          << lo << " acked)\n" << agents[0]->placement_report();
        continue;
      }
      ASSERT_EQ(value->size(), 8u);
      std::uint64_t stored = 0;
      std::memcpy(&stored, value->data(), 8);
      EXPECT_GE(stored, lo) << key << " on chip " << owner
                            << ": an acked increment was lost";
      EXPECT_LE(stored, hi) << key << " on chip " << owner
                            << ": an increment was double-applied";
    }
  }

  // CAS keys: no copy may sit at a version older than the last acked
  // success (version monotonicity survived the membership churn).
  for (int k = 0; k < kCasKeys; ++k) {
    const std::string key = "cas" + std::to_string(k);
    if (last_success[k] == 0) continue;
    const int shard = final_map.shard_of(key);
    for (const int owner : {final_map.primary(shard), final_map.replica(shard)}) {
      ASSERT_GE(owner, 0);
      EXPECT_GE(services[static_cast<std::size_t>(owner)]->version_of(key),
                last_success[k])
          << key << " on chip " << owner << " rolled back past an acked CAS";
    }
  }

  // Idempotency-table boundedness under churn: thousands of ops ran, but
  // the watermark + epoch resets keep every table at O(inflight) records.
  std::size_t records = 0;
  for (const auto& s : stores) {
    if (s) records += s->dedup_records();
  }
  EXPECT_LE(records, 256u)
      << "idempotency tables grew with history instead of inflight ops";
}

TEST(ChaosSoak, StoreAtomicOpsNoLossNoDoubleApply) {
  for (const std::uint64_t seed : soak_seeds()) run_store_soak(seed);
}

}  // namespace
}  // namespace tcc::cluster
