// tcstore store-layer tests: atomic RMW ops (incr with wrap, CAS on the
// entry version, bounded append) executed at the acting primary and
// replicated as logical ops, the (client, seq) idempotency table — replayed
// outcomes, watermark-bounded size, records that migrate with their shards —
// per-key TTLs with lazy expiry plus the periodic sweep, and ordered range
// scans paged in bounded frames.
//
// Inside coroutines gtest ASSERT_* (a plain `return`) is ill-formed, so the
// pattern throughout is EXPECT + `co_return` guard: the `done` flag stays
// false and the test fails at the outer ASSERT_TRUE(done).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "tcsvc/kv.hpp"
#include "tcsvc/membership.hpp"
#include "tcsvc/rpc.hpp"
#include "tcstore/store.hpp"

namespace tcc {
namespace {

using cluster::TcCluster;

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

std::vector<std::uint8_t> counter_bytes(std::uint64_t v) {
  std::vector<std::uint8_t> out(8);
  std::memcpy(out.data(), &v, 8);
  return out;
}

/// 4-node ring: chip 0 runs the clients, chips 1..3 the KV + store services.
struct StoreRig {
  std::unique_ptr<TcCluster> cl;
  std::vector<std::unique_ptr<tcsvc::RpcNode>> nodes;
  std::vector<std::unique_ptr<tcsvc::KvService>> kvs;
  std::vector<std::unique_ptr<tcstore::StoreService>> stores;
  std::unique_ptr<tcstore::StoreClient> client;
  std::unique_ptr<tcsvc::KvClient> kv_client;
  tcsvc::ShardMap map{{1, 2, 3}, 16, 0x7cc};

  void stop_all() {
    for (auto& n : nodes) {
      if (n) n->stop();
    }
  }

  std::uint64_t sum_stat(std::uint64_t tcstore::StoreStats::* field) const {
    std::uint64_t sum = 0;
    for (const auto& s : stores) {
      if (s) sum += s->stats().*field;
    }
    return sum;
  }

  std::uint64_t sum_kv_stat(std::uint64_t tcsvc::KvStats::* field) const {
    std::uint64_t sum = 0;
    for (const auto& k : kvs) {
      if (k) sum += k->stats().*field;
    }
    return sum;
  }

  std::size_t total_dedup_records() const {
    std::size_t n = 0;
    for (const auto& s : stores) {
      if (s) n += s->dedup_records();
    }
    return n;
  }
};

StoreRig make_store_rig(tcstore::StoreConfig store_cfg = {}) {
  StoreRig rig;
  rig.cl = make_ring4();
  rig.map = tcsvc::ShardMap::from_plan(rig.cl->plan(), {1, 2, 3}, 16);
  const int n = rig.cl->num_nodes();
  std::vector<int> all_chips;
  for (int chip = 0; chip < n; ++chip) all_chips.push_back(chip);
  rig.nodes.resize(static_cast<std::size_t>(n));
  rig.kvs.resize(static_cast<std::size_t>(n));
  rig.stores.resize(static_cast<std::size_t>(n));
  for (int chip = 0; chip < n; ++chip) {
    rig.nodes[static_cast<std::size_t>(chip)] =
        std::make_unique<tcsvc::RpcNode>(*rig.cl, chip);
  }
  for (int chip = 1; chip < n; ++chip) {
    const auto i = static_cast<std::size_t>(chip);
    rig.kvs[i] = std::make_unique<tcsvc::KvService>(*rig.cl, *rig.nodes[i], rig.map);
    rig.kvs[i]->start();
    rig.stores[i] = std::make_unique<tcstore::StoreService>(*rig.cl, *rig.nodes[i],
                                                            *rig.kvs[i], store_cfg);
    rig.stores[i]->start();
    rig.nodes[i]->start(all_chips).expect("start");
  }
  rig.client = std::make_unique<tcstore::StoreClient>(*rig.cl, *rig.nodes[0],
                                                      rig.map, store_cfg);
  rig.kv_client = std::make_unique<tcsvc::KvClient>(*rig.cl, *rig.nodes[0], rig.map);
  return rig;
}

// ----------------------------------------------------------- atomic ops --

TEST(StoreOps, IncrAddsWrapsAndRejectsNonCounters) {
  auto rig = make_store_rig();
  bool done = false;
  rig.cl->engine().spawn_fn([&]() -> sim::Task<void> {
    auto a = co_await rig.client->incr("ctr", 5);
    EXPECT_TRUE(a.ok()) << (a.ok() ? "" : a.error().to_string());
    if (!a.ok()) { rig.stop_all(); co_return; }
    EXPECT_EQ(a.value().value, 5u);
    EXPECT_GT(a.value().version, 0u);

    auto b = co_await rig.client->incr("ctr", -2);  // negative delta = decrement
    EXPECT_TRUE(b.ok());
    if (!b.ok()) { rig.stop_all(); co_return; }
    EXPECT_EQ(b.value().value, 3u);
    EXPECT_GT(b.value().version, a.value().version);

    // A decrement below zero wraps in two's complement, by contract.
    auto w = co_await rig.client->incr("wrap", -1);
    EXPECT_TRUE(w.ok());
    if (!w.ok()) { rig.stop_all(); co_return; }
    EXPECT_EQ(w.value().value, ~std::uint64_t{0});

    // incr on a value that is not 8 bytes is a typed kInvalidArgument.
    auto put = co_await rig.client->set("blob", bytes_of("xyz"));
    EXPECT_TRUE(put.ok());
    auto bad = co_await rig.client->incr("blob", 1);
    EXPECT_FALSE(bad.ok());
    if (!bad.ok()) { EXPECT_EQ(bad.error().code, ErrorCode::kInvalidArgument); }

    done = true;
    rig.stop_all();
  });
  rig.cl->engine().run();
  ASSERT_TRUE(done);

  // Synchronous logical replication: the replica re-executed the increments
  // and holds the identical counter by ack time.
  const int shard = rig.map.shard_of("ctr");
  const auto& replica = rig.kvs[static_cast<std::size_t>(rig.map.replica(shard))];
  auto copy = replica->peek("ctr");
  ASSERT_TRUE(copy.has_value()) << "ctr missing on its replica";
  EXPECT_EQ(*copy, counter_bytes(3));

  EXPECT_EQ(rig.sum_stat(&tcstore::StoreStats::incrs), 4u);  // 3 ok + 1 typed
  EXPECT_EQ(rig.sum_kv_stat(&tcsvc::KvStats::degraded_writes), 0u);
  EXPECT_EQ(rig.sum_kv_stat(&tcsvc::KvStats::not_primary_rejects), 0u);
}

// ------------------------------------------------------- isolation guard --

// A chip whose keepalive judges every other server dead must not ack a write
// on its own copy: it is far more likely the cut-off side of a partition than
// the last survivor. Puts and store ops go through the same replication step,
// so both refuse.
TEST(IsolationGuard, RefusesSingleCopyAckWhenEveryOtherServerLooksDead) {
  // One attempt per op (the backoff outlasts the deadline), so each result is
  // the server's verdict, not whichever retry the deadline happened to cut.
  const Picoseconds budget = Picoseconds::from_us(50.0);
  tcstore::StoreConfig store_cfg;
  store_cfg.retry_backoff = 2 * budget;
  tcsvc::KvConfig kv_cfg;
  kv_cfg.retry_backoff = 2 * budget;
  auto rig = make_store_rig(store_cfg);
  tcsvc::KvClient kv_client(*rig.cl, *rig.nodes[0], rig.map, kv_cfg);
  sim::Engine& engine = rig.cl->engine();
  rig.cl->start_keepalives(Picoseconds::from_us(2.0), Picoseconds::from_us(10.0));
  // A key whose shard chip 1 takes over once its primary (2 or 3) is dead.
  std::string key;
  for (int i = 0; key.empty(); ++i) {
    const std::string k = strprintf("iso%d", i);
    if (rig.map.replica(rig.map.shard_of(k)) == 1) key = k;
  }
  auto judged_dead = [&](int observer) {
    return !rig.cl->driver(observer).peer_alive(2) &&
           !rig.cl->driver(observer).peer_alive(3);
  };
  bool done = false;
  engine.spawn_fn([&]() -> sim::Task<void> {
    for (const int chip : {2, 3}) {
      rig.cl->driver(chip).set_hung(true);
      rig.nodes[static_cast<std::size_t>(chip)]->stop();
    }
    while (!judged_dead(0) || !judged_dead(1)) {
      co_await engine.delay(Picoseconds::from_us(1.0));
    }
    auto put = co_await kv_client.put(key, counter_bytes(7), engine.now() + budget);
    EXPECT_FALSE(put.ok()) << "put acked on an isolated chip's copy alone";
    if (!put.ok()) { EXPECT_EQ(put.error().code, ErrorCode::kUnavailable); }

    auto incr = co_await rig.client->incr(key, 1, Picoseconds{0}, engine.now() + budget);
    EXPECT_FALSE(incr.ok()) << "incr acked on an isolated chip's copy alone";
    if (!incr.ok()) { EXPECT_EQ(incr.error().code, ErrorCode::kUnavailable); }
    done = true;
    rig.cl->stop_keepalives();
    rig.stop_all();
  });
  engine.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(rig.sum_kv_stat(&tcsvc::KvStats::degraded_writes), 0u);
}

TEST(StoreOps, CasCreateConflictAndVersionChain) {
  auto rig = make_store_rig();
  bool done = false;
  rig.cl->engine().spawn_fn([&]() -> sim::Task<void> {
    // expected_version 0 = create-if-absent.
    auto c1 = co_await rig.client->cas("cfg", 0, bytes_of("v1"));
    EXPECT_TRUE(c1.ok()) << (c1.ok() ? "" : c1.error().to_string());
    if (!c1.ok()) { rig.stop_all(); co_return; }
    EXPECT_TRUE(c1.value().success);
    EXPECT_GT(c1.value().version, 0u);

    // A stale expectation is an OK response carrying the version that won —
    // not an error — and must leave the value untouched.
    auto c2 = co_await rig.client->cas("cfg", 0, bytes_of("v2"));
    EXPECT_TRUE(c2.ok());
    if (!c2.ok()) { rig.stop_all(); co_return; }
    EXPECT_FALSE(c2.value().success);
    EXPECT_EQ(c2.value().version, c1.value().version);
    auto still = co_await rig.kv_client->get("cfg");
    EXPECT_TRUE(still.ok());
    if (still.ok()) { EXPECT_EQ(still.value(), bytes_of("v1")); }

    // Feeding the returned version forward succeeds and bumps the version.
    auto c3 = co_await rig.client->cas("cfg", c2.value().version, bytes_of("v2"));
    EXPECT_TRUE(c3.ok());
    if (!c3.ok()) { rig.stop_all(); co_return; }
    EXPECT_TRUE(c3.value().success);
    EXPECT_GT(c3.value().version, c1.value().version);

    done = true;
    rig.stop_all();
  });
  rig.cl->engine().run();
  ASSERT_TRUE(done);

  EXPECT_EQ(rig.sum_stat(&tcstore::StoreStats::cas_ops), 3u);
  EXPECT_EQ(rig.sum_stat(&tcstore::StoreStats::cas_conflicts), 1u);

  const int shard = rig.map.shard_of("cfg");
  const auto& replica = rig.kvs[static_cast<std::size_t>(rig.map.replica(shard))];
  auto copy = replica->peek("cfg");
  ASSERT_TRUE(copy.has_value());
  EXPECT_EQ(*copy, bytes_of("v2"));
}

TEST(StoreOps, AppendGrowsUntilTypedCapOverflow) {
  tcstore::StoreConfig cfg;
  cfg.append_cap = 16;
  auto rig = make_store_rig(cfg);
  bool done = false;
  rig.cl->engine().spawn_fn([&]() -> sim::Task<void> {
    auto a1 = co_await rig.client->append("log", bytes_of("abc"));
    EXPECT_TRUE(a1.ok()) << (a1.ok() ? "" : a1.error().to_string());
    if (!a1.ok()) { rig.stop_all(); co_return; }
    EXPECT_EQ(a1.value().size, 3u);

    auto a2 = co_await rig.client->append("log", bytes_of("defg"));
    EXPECT_TRUE(a2.ok());
    if (!a2.ok()) { rig.stop_all(); co_return; }
    EXPECT_EQ(a2.value().size, 7u);
    EXPECT_GT(a2.value().version, a1.value().version);

    // Growing past append_cap is typed and leaves the value unchanged.
    auto over = co_await rig.client->append("log", std::vector<std::uint8_t>(10, 'x'));
    EXPECT_FALSE(over.ok());
    if (!over.ok()) {
      EXPECT_EQ(over.error().code, ErrorCode::kResourceExhausted);
    }
    auto still = co_await rig.kv_client->get("log");
    EXPECT_TRUE(still.ok());
    if (still.ok()) { EXPECT_EQ(still.value(), bytes_of("abcdefg")); }

    done = true;
    rig.stop_all();
  });
  rig.cl->engine().run();
  ASSERT_TRUE(done);

  EXPECT_EQ(rig.sum_stat(&tcstore::StoreStats::appends), 3u);
  EXPECT_EQ(rig.sum_stat(&tcstore::StoreStats::append_overflows), 1u);

  const int shard = rig.map.shard_of("log");
  const auto& replica = rig.kvs[static_cast<std::size_t>(rig.map.replica(shard))];
  auto copy = replica->peek("log");
  ASSERT_TRUE(copy.has_value());
  EXPECT_EQ(*copy, bytes_of("abcdefg"));
}

// ------------------------------------------------------------------ TTL --

TEST(StoreTtl, LazyExpiryOnReadAndPeriodicSweep) {
  auto rig = make_store_rig();
  sim::Engine& engine = rig.cl->engine();
  bool done = false;
  rig.cl->engine().spawn_fn([&]() -> sim::Task<void> {
    auto put = co_await rig.client->set("t", bytes_of("v"),
                                        Picoseconds::from_us(20.0));
    EXPECT_TRUE(put.ok()) << (put.ok() ? "" : put.error().to_string());
    if (!put.ok()) { rig.stop_all(); co_return; }
    const std::uint64_t v_before = put.value();

    auto live = co_await rig.kv_client->get("t");
    EXPECT_TRUE(live.ok()) << "a key must be readable before its expiry";

    co_await engine.delay(Picoseconds::from_us(30.0));
    auto gone = co_await rig.kv_client->get("t");
    EXPECT_FALSE(gone.ok()) << "an expired key must read as absent";
    if (!gone.ok()) { EXPECT_EQ(gone.error().code, ErrorCode::kNotFound); }

    // Both copies agree the key is invisible: the expiry is an absolute
    // primary-assigned deadline riding replication, re-checked under the
    // same sim clock everywhere.
    const int shard = rig.map.shard_of("t");
    for (const int owner : {rig.map.primary(shard), rig.map.replica(shard)}) {
      EXPECT_FALSE(rig.kvs[static_cast<std::size_t>(owner)]->peek("t").has_value());
    }

    // Rebirth after expiry keeps the per-shard version sequence monotone.
    auto again = co_await rig.client->set("t", bytes_of("w"));
    EXPECT_TRUE(again.ok());
    if (!again.ok()) { rig.stop_all(); co_return; }
    EXPECT_GT(again.value(), v_before);
    auto back = co_await rig.kv_client->get("t");
    EXPECT_TRUE(back.ok());
    if (back.ok()) { EXPECT_EQ(back.value(), bytes_of("w")); }

    // The sweep backstop: a short-TTL key nobody ever reads gets physically
    // collected once a sweep period passes its deadline.
    auto sw = co_await rig.client->set("sweep-me", bytes_of("x"),
                                       Picoseconds::from_us(10.0));
    EXPECT_TRUE(sw.ok());
    co_await engine.delay(Picoseconds::from_us(120.0));  // > ttl + sweep_period
    done = true;
    rig.stop_all();
  });
  rig.cl->engine().run();
  ASSERT_TRUE(done);
  EXPECT_GT(rig.sum_stat(&tcstore::StoreStats::swept), 0u)
      << "the periodic sweep never collected the unread expired key";
}

// ----------------------------------------------------------------- scan --

TEST(StoreScan, OrderedPagedAndRangeBounded) {
  auto rig = make_store_rig();
  sim::Engine& engine = rig.cl->engine();

  // Collect keys that all land in one shard so the scan walks one ordered map.
  const int shard = rig.map.shard_of("scan0");
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < 24 && i < 4000; ++i) {
    std::string k = strprintf("scan%d", i);
    if (rig.map.shard_of(k) == shard) keys.push_back(std::move(k));
  }
  ASSERT_EQ(keys.size(), 24u);
  std::vector<std::string> sorted = keys;
  std::sort(sorted.begin(), sorted.end());

  bool done = false;
  std::vector<tcstore::ScanEntry> full, ranged;
  rig.cl->engine().spawn_fn([&]() -> sim::Task<void> {
    for (const auto& k : keys) {
      auto r = co_await rig.client->set(k, std::vector<std::uint8_t>(24, 'v'));
      EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().to_string());
      if (!r.ok()) { rig.stop_all(); co_return; }
    }
    // Two short-TTL keys in the same shard: scans must skip them once expired.
    int planted = 0;
    for (int i = 4000; planted < 2 && i < 8000; ++i) {
      const std::string k = strprintf("scan%d", i);
      if (rig.map.shard_of(k) != shard) continue;
      auto r = co_await rig.client->set(k, bytes_of("ttl"),
                                        Picoseconds::from_us(5.0));
      EXPECT_TRUE(r.ok());
      if (!r.ok()) { rig.stop_all(); co_return; }
      ++planted;
    }
    EXPECT_EQ(planted, 2);
    co_await engine.delay(Picoseconds::from_us(10.0));

    auto all = co_await rig.client->scan_shard(shard);
    EXPECT_TRUE(all.ok()) << (all.ok() ? "" : all.error().to_string());
    if (!all.ok()) { rig.stop_all(); co_return; }
    full = std::move(all).value();

    // Range scan: start exclusive (a resume cursor), end exclusive.
    auto part = co_await rig.client->scan_shard(shard, sorted[4], sorted[15]);
    EXPECT_TRUE(part.ok());
    if (!part.ok()) { rig.stop_all(); co_return; }
    ranged = std::move(part).value();

    done = true;
    rig.stop_all();
  });
  rig.cl->engine().run();
  ASSERT_TRUE(done);

  ASSERT_EQ(full.size(), sorted.size()) << "expired entries must not appear";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(full[i].key, sorted[i]) << "scan must return keys in order";
    EXPECT_GT(full[i].version, 0u);
    EXPECT_EQ(full[i].value.size(), 24u);
  }

  ASSERT_EQ(ranged.size(), 10u);  // sorted[5..14]
  for (std::size_t i = 0; i < ranged.size(); ++i) {
    EXPECT_EQ(ranged[i].key, sorted[5 + i]);
  }

  // 24 entries at ~38 B each against a 1 KiB frame budget: the full scan
  // must have paged through more than one frame.
  EXPECT_GT(rig.sum_stat(&tcstore::StoreStats::scans), 2u);
}

// ---------------------------------------------------------- idempotency --

TEST(StoreDedup, DuplicateSeqReplaysRecordedOutcome) {
  auto rig = make_store_rig();
  // A second client on the same chip shares the (client = chip) identity and
  // its own seq counter starting at 1 — every op it issues is a wire-level
  // duplicate of the first client's ops, exactly like a retry whose original
  // ack was lost.
  //
  // The watermark contract bounds what may be duplicated: a real retry only
  // ever re-sends an op the client still considers outstanding, so its seq is
  // at-or-above every watermark the client has piggybacked and its record
  // cannot have been pruned. This stand-in client replays *acked* ops, so the
  // three ops are placed on three distinct shards — a later op's higher
  // watermark must not land on an earlier op's shard and prune its record.
  auto dup = std::make_unique<tcstore::StoreClient>(*rig.cl, *rig.nodes[0],
                                                    rig.map, tcstore::StoreConfig{});
  const std::string k_ctr = "dup";
  std::string k_set, k_blob;
  for (int i = 0; (k_set.empty() || k_blob.empty()) && i < 4000; ++i) {
    std::string cand = strprintf("k%d", i);
    const int s = rig.map.shard_of(cand);
    if (s == rig.map.shard_of(k_ctr)) continue;
    if (k_set.empty()) {
      k_set = std::move(cand);
    } else if (s != rig.map.shard_of(k_set)) {
      k_blob = std::move(cand);
    }
  }
  ASSERT_FALSE(k_blob.empty());

  bool done = false;
  rig.cl->engine().spawn_fn([&]() -> sim::Task<void> {
    // A non-counter value planted through the KV path (no store seq used).
    auto plant = co_await rig.kv_client->put(k_blob, bytes_of("xyz"));
    EXPECT_TRUE(plant.ok()) << (plant.ok() ? "" : plant.error().to_string());
    if (!plant.ok()) { rig.stop_all(); co_return; }

    auto a1 = co_await rig.client->incr(k_ctr, 7);  // seq 1
    EXPECT_TRUE(a1.ok()) << (a1.ok() ? "" : a1.error().to_string());
    if (!a1.ok()) { rig.stop_all(); co_return; }
    EXPECT_EQ(a1.value().value, 7u);
    auto a2 = co_await rig.client->set(k_set, bytes_of("xyz"));  // seq 2
    EXPECT_TRUE(a2.ok());
    if (!a2.ok()) { rig.stop_all(); co_return; }
    auto a3 = co_await rig.client->incr(k_blob, 1);  // seq 3: typed error
    EXPECT_FALSE(a3.ok());
    if (!a3.ok()) { EXPECT_EQ(a3.error().code, ErrorCode::kInvalidArgument); }

    // Duplicate of seq 1: the recorded response replays — the 100 delta must
    // NOT be applied, the version must be the original one.
    auto b1 = co_await dup->incr(k_ctr, 100);
    EXPECT_TRUE(b1.ok());
    if (!b1.ok()) { rig.stop_all(); co_return; }
    EXPECT_EQ(b1.value().value, 7u);
    EXPECT_EQ(b1.value().version, a1.value().version);

    // Duplicate of seq 2 replays the set outcome.
    auto b2 = co_await dup->set(k_set, bytes_of("xyz"));
    EXPECT_TRUE(b2.ok());
    if (b2.ok()) { EXPECT_EQ(b2.value(), a2.value()); }

    // Error outcomes replay typed too — never re-executed, never silent.
    auto b3 = co_await dup->incr(k_blob, 1);
    EXPECT_FALSE(b3.ok());
    if (!b3.ok()) { EXPECT_EQ(b3.error().code, ErrorCode::kInvalidArgument); }

    // The counter really did stay untouched by the duplicates.
    auto fresh = co_await rig.client->incr(k_ctr, 1);  // seq 4
    EXPECT_TRUE(fresh.ok());
    if (fresh.ok()) { EXPECT_EQ(fresh.value().value, 8u); }

    done = true;
    rig.stop_all();
  });
  rig.cl->engine().run();
  ASSERT_TRUE(done);

  EXPECT_EQ(rig.sum_stat(&tcstore::StoreStats::dedup_hits), 3u);
  // Executed ops only: incrs counts seq 1, 3, 4 — not the replayed b1/b3.
  EXPECT_EQ(rig.sum_stat(&tcstore::StoreStats::incrs), 3u);
  EXPECT_EQ(rig.sum_stat(&tcstore::StoreStats::sets), 1u);
}

TEST(StoreDedup, WatermarkKeepsTableBounded) {
  auto rig = make_store_rig();
  constexpr int kOps = 150;
  constexpr int kKeys = 24;
  bool done = false;
  rig.cl->engine().spawn_fn([&]() -> sim::Task<void> {
    for (int i = 0; i < kOps; ++i) {
      auto r = co_await rig.client->incr(strprintf("b%d", i % kKeys), 1);
      EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().to_string());
      if (!r.ok()) { rig.stop_all(); co_return; }
    }
    // Every counter saw exactly its share of increments — nothing was lost
    // or double-applied while the table churned.
    for (int k = 0; k < kKeys; ++k) {
      auto got = co_await rig.kv_client->get(strprintf("b%d", k));
      EXPECT_TRUE(got.ok());
      if (!got.ok()) { rig.stop_all(); co_return; }
      std::uint64_t v = 0;
      std::memcpy(&v, got.value().data(), 8);
      // 150 ops round-robined over 24 keys: the first 150 % 24 keys get one
      // extra increment.
      const std::uint64_t expect =
          static_cast<std::uint64_t>(kOps / kKeys + (k < kOps % kKeys ? 1 : 0));
      EXPECT_EQ(v, expect) << "key b" << k;
    }
    done = true;
    rig.stop_all();
  });
  rig.cl->engine().run();
  ASSERT_TRUE(done);

  // A sequential client's watermark equals its current seq, so each shard
  // holds at most the records at-or-above the last watermark it saw — O(1)
  // per (shard, copy), not O(history).
  const auto bound = static_cast<std::size_t>(2 * rig.map.shards());
  EXPECT_LE(rig.total_dedup_records(), bound)
      << "the idempotency table grew with history instead of inflight ops";
  EXPECT_GT(rig.sum_stat(&tcstore::StoreStats::dedup_pruned), 0u);
}

// ------------------------------------------- dedup records follow shards --

// The records that make retries safe must survive resharding: after a live
// join moves shards (entries via the migration stream, idempotency records
// via the membership aux stream), a duplicate of every pre-join op must
// still replay its recorded outcome on whatever chip now acts as primary —
// re-execution after a cutover would double-apply.
TEST(StoreDedup, RecordsMigrateWithShardsAcrossJoin) {
  TcCluster::Options o;
  o.topology.shape = topology::ClusterShape::kRing;
  o.topology.nx = 6;
  o.topology.dram_per_chip = 64_MiB;
  o.boot.model_code_fetch = false;
  auto cl = TcCluster::create(o).value();
  cl->boot().expect("boot");
  cl->start_keepalives(Picoseconds::from_us(2.0), Picoseconds::from_us(10.0));

  const std::vector<int> participants{0, 1, 2, 3, 4};
  const int n = cl->num_nodes();
  auto map = tcsvc::ShardMap::from_plan(cl->plan(), {1, 2, 3}, 16);
  std::vector<std::unique_ptr<tcsvc::RpcNode>> nodes(static_cast<std::size_t>(n));
  std::vector<std::unique_ptr<tcsvc::KvService>> kvs(static_cast<std::size_t>(n));
  std::vector<std::unique_ptr<tcstore::StoreService>> stores(
      static_cast<std::size_t>(n));
  std::vector<std::unique_ptr<tcsvc::MembershipAgent>> agents(
      static_cast<std::size_t>(n));
  for (int chip : participants) {
    nodes[static_cast<std::size_t>(chip)] = std::make_unique<tcsvc::RpcNode>(*cl, chip);
  }
  for (int chip : {1, 2, 3, 4}) {
    const auto i = static_cast<std::size_t>(chip);
    kvs[i] = std::make_unique<tcsvc::KvService>(*cl, *nodes[i], map);
    kvs[i]->start();
    stores[i] = std::make_unique<tcstore::StoreService>(*cl, *nodes[i], *kvs[i]);
    stores[i]->start();
  }
  for (int chip : participants) {
    auto& agent = agents[static_cast<std::size_t>(chip)];
    agent = std::make_unique<tcsvc::MembershipAgent>(
        *cl, *nodes[static_cast<std::size_t>(chip)], map);
    agent->start();
    agent->attach_service(kvs[static_cast<std::size_t>(chip)].get());
    if (stores[static_cast<std::size_t>(chip)]) {
      agent->attach_aux(stores[static_cast<std::size_t>(chip)].get());
    }
  }
  auto coord = std::make_unique<tcsvc::MembershipCoordinator>(*cl, *agents[0],
                                                              participants);
  coord->start();
  for (int chip : participants) {
    nodes[static_cast<std::size_t>(chip)]->start(participants).expect("start");
  }
  auto client = std::make_unique<tcstore::StoreClient>(*cl, *nodes[0], map,
                                                       tcstore::StoreConfig{});
  client->set_membership(agents[0].get());
  // Same chip = same client identity, fresh seq counter: its ops are exact
  // wire duplicates of `client`'s, issued after the cutover.
  auto dup = std::make_unique<tcstore::StoreClient>(*cl, *nodes[0], map,
                                                    tcstore::StoreConfig{});
  dup->set_membership(agents[0].get());

  // One key per shard: the duplicate pass below replays *acked* ops, and a
  // record only survives until a later op from the same client lands on its
  // shard with a higher watermark — shard-disjoint keys keep every record
  // live through the join (a real retry duplicates only outstanding ops and
  // needs no such care).
  constexpr int kKeys = 12;
  std::vector<std::string> keys;
  std::set<int> used_shards;
  for (int i = 0; static_cast<int>(keys.size()) < kKeys && i < 8000; ++i) {
    std::string cand = strprintf("m%d", i);
    if (used_shards.insert(map.shard_of(cand)).second) keys.push_back(std::move(cand));
  }
  ASSERT_EQ(static_cast<int>(keys.size()), kKeys);
  std::vector<tcstore::StoreClient::IncrResult> originals(kKeys);
  bool done = false;
  auto stop_nodes = [&] {
    cl->stop_keepalives();
    for (auto& node : nodes) {
      if (node) node->stop();
    }
  };
  cl->engine().spawn_fn([&]() -> sim::Task<void> {
    for (int i = 0; i < kKeys; ++i) {
      auto r = co_await client->incr(keys[static_cast<std::size_t>(i)], 1);
      EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().to_string());
      if (!r.ok()) { stop_nodes(); co_return; }
      originals[static_cast<std::size_t>(i)] = r.value();
    }

    Status join = co_await agents[4]->request_join(0);
    EXPECT_TRUE(join.ok()) << (join.ok() ? "" : join.error().to_string());
    if (!join.ok()) { stop_nodes(); co_return; }
    EXPECT_EQ(agents[0]->epoch(), 1u);

    // Every duplicate must replay — identical version AND value, counters
    // untouched — no matter where its shard landed.
    for (int i = 0; i < kKeys; ++i) {
      auto r = co_await dup->incr(keys[static_cast<std::size_t>(i)], 1);
      EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().to_string());
      if (!r.ok()) { stop_nodes(); co_return; }
      EXPECT_EQ(r.value().version, originals[static_cast<std::size_t>(i)].version)
          << "key " << keys[static_cast<std::size_t>(i)]
          << " re-executed instead of replaying after the move";
      EXPECT_EQ(r.value().value, originals[static_cast<std::size_t>(i)].value);
    }

    done = true;
    stop_nodes();
  });
  cl->engine().run();
  ASSERT_TRUE(done);

  // The joiner owns shards now; any it serves as primary answered a
  // duplicate from its migrated aux records, and nothing double-applied.
  const tcsvc::ShardMap& m = agents[0]->map();
  int owned_by_4 = 0;
  for (int s = 0; s < m.shards(); ++s) {
    if (m.primary(s) == 4 || m.replica(s) == 4) ++owned_by_4;
  }
  EXPECT_GT(owned_by_4, 0);
  EXPECT_GT(agents[4]->stats().aux_in, 0u)
      << "no idempotency records travelled with the migrated shards";
  std::uint64_t hits = 0;
  for (const auto& s : stores) {
    if (s) hits += s->stats().dedup_hits;
  }
  EXPECT_EQ(hits, static_cast<std::uint64_t>(kKeys));
  for (int i = 0; i < kKeys; ++i) {
    const std::string& key = keys[static_cast<std::size_t>(i)];
    const int shard = m.shard_of(key);
    for (const int owner : {m.primary(shard), m.replica(shard)}) {
      auto copy = kvs[static_cast<std::size_t>(owner)]->peek(key);
      ASSERT_TRUE(copy.has_value()) << key << " missing on chip " << owner;
      EXPECT_EQ(*copy, counter_bytes(1)) << key << " double-applied";
    }
  }
  EXPECT_EQ(coord->stats().joins, 1u);
  EXPECT_EQ(coord->stats().failed, 0u);
}

}  // namespace
}  // namespace tcc
