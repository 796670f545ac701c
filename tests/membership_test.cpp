// tcsvc membership tests: rendezvous reassignment minimality (the property
// that makes elastic membership cheap), live join with state streaming,
// planned drain, dead-server eviction with replica re-seeding (including the
// degraded-write-window regression), and the health_report placement section.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "tccluster/diag.hpp"
#include "tcsvc/kv.hpp"
#include "tcsvc/membership.hpp"
#include "tcsvc/rpc.hpp"

namespace tcc {
namespace {

using cluster::TcCluster;

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

// ------------------------------------------------- reassignment minimality --

// The property elastic membership leans on: adding one node to an N-server
// rendezvous map touches only the ~2/N shard fraction whose pair the new
// node enters; every other shard's (primary, replica) pair is bit-identical.
TEST(PlacementMoves, AddingOneNodeMovesOnlyItsShardFraction) {
  const int shards = 256;
  const tcsvc::ShardMap from({1, 2, 3, 4, 5}, shards, 0x7cc);
  const tcsvc::ShardMap to({1, 2, 3, 4, 5, 6}, shards, 0x7cc);

  int changed = 0;
  for (int s = 0; s < shards; ++s) {
    if (to.primary(s) == 6 || to.replica(s) == 6) {
      ++changed;
      continue;
    }
    EXPECT_EQ(from.primary(s), to.primary(s))
        << "shard " << s << ": pair reshuffled without involving the new node";
    EXPECT_EQ(from.replica(s), to.replica(s))
        << "shard " << s << ": pair reshuffled without involving the new node";
  }
  // Expected fraction: the new node wins one of 2 pair slots with
  // probability ~2/6 per shard. Allow a factor-two band around that.
  const int expected = shards * 2 / 6;
  EXPECT_GT(changed, expected / 2) << "suspiciously few shards moved";
  EXPECT_LT(changed, expected * 2) << "far more shards moved than ~2/N";

  // Exactly one stream per changed shard, always into the new node, always
  // sourced from a member of the old pair.
  const auto moves = tcsvc::placement_moves(from, to);
  EXPECT_EQ(static_cast<int>(moves.size()), changed);
  for (const auto& m : moves) {
    EXPECT_EQ(m.target, 6);
    EXPECT_TRUE(m.source == from.primary(m.shard) ||
                m.source == from.replica(m.shard))
        << "stream must come from a chip that holds a copy";
  }
}

TEST(PlacementMoves, RemovingOneNodeReseedsOnlyItsShards) {
  const int shards = 256;
  const tcsvc::ShardMap from({1, 2, 3, 4, 5, 6}, shards, 0x7cc);
  const tcsvc::ShardMap to({1, 2, 3, 4, 5}, shards, 0x7cc);

  for (int s = 0; s < shards; ++s) {
    if (from.primary(s) == 6 || from.replica(s) == 6) continue;
    EXPECT_EQ(from.primary(s), to.primary(s)) << "unrelated shard reshuffled";
    EXPECT_EQ(from.replica(s), to.replica(s)) << "unrelated shard reshuffled";
  }
  // Eviction: node 6 is dead, so no move may use it as a source, and every
  // move re-seeds a shard node 6 held.
  const auto moves = tcsvc::placement_moves(from, to, {6});
  for (const auto& m : moves) {
    EXPECT_NE(m.source, 6) << "streaming from the dead node";
    EXPECT_TRUE(from.primary(m.shard) == 6 || from.replica(m.shard) == 6)
        << "re-seeded a shard the removed node never held";
    EXPECT_TRUE(m.target == to.primary(m.shard) || m.target == to.replica(m.shard));
  }
  // Unchanged placements need no streams at all.
  EXPECT_TRUE(tcsvc::placement_moves(from, from).empty());
}

// ------------------------------------------------------------ serving rig --

/// Membership fixture: a 6-chip ring. Chip 0 is the client + coordinator,
/// chips 1..3 the initial servers, chip 4 the joiner (its service exists but
/// owns nothing at epoch 0), chip 5 idle ballast.
struct MemRig {
  std::unique_ptr<TcCluster> cl;
  std::vector<std::unique_ptr<tcsvc::RpcNode>> nodes;
  std::vector<std::unique_ptr<tcsvc::KvService>> services;
  std::vector<std::unique_ptr<tcsvc::MembershipAgent>> agents;
  std::unique_ptr<tcsvc::KvClient> client;
  std::unique_ptr<tcsvc::MembershipCoordinator> coord;
  tcsvc::KvConfig kv_cfg;
  std::vector<int> participants{0, 1, 2, 3, 4};

  void stop_all() {
    for (auto& n : nodes) {
      if (n) n->stop();
    }
  }
  [[nodiscard]] std::uint64_t sum_degraded_open() const {
    std::uint64_t sum = 0;
    for (const auto& s : services) {
      if (s) sum += s->stats().degraded_open;
    }
    return sum;
  }
  [[nodiscard]] std::uint64_t sum_degraded_writes() const {
    std::uint64_t sum = 0;
    for (const auto& s : services) {
      if (s) sum += s->stats().degraded_writes;
    }
    return sum;
  }
};

MemRig make_mem_rig(bool auto_heal = true, int shards = 16) {
  MemRig rig;
  TcCluster::Options o;
  o.topology.shape = topology::ClusterShape::kRing;
  o.topology.nx = 6;
  o.topology.dram_per_chip = 64_MiB;
  o.boot.model_code_fetch = false;
  rig.cl = TcCluster::create(o).value();
  rig.cl->boot().expect("boot");

  rig.kv_cfg.shards = shards;
  auto map = tcsvc::ShardMap::from_plan(rig.cl->plan(), {1, 2, 3}, shards);
  const int n = rig.cl->num_nodes();
  rig.nodes.resize(static_cast<std::size_t>(n));
  rig.services.resize(static_cast<std::size_t>(n));
  rig.agents.resize(static_cast<std::size_t>(n));

  tcsvc::MembershipConfig mem_cfg;
  mem_cfg.auto_heal = auto_heal;
  for (int chip : rig.participants) {
    rig.nodes[static_cast<std::size_t>(chip)] =
        std::make_unique<tcsvc::RpcNode>(*rig.cl, chip);
  }
  for (int chip : {1, 2, 3, 4}) {
    rig.services[static_cast<std::size_t>(chip)] = std::make_unique<tcsvc::KvService>(
        *rig.cl, *rig.nodes[static_cast<std::size_t>(chip)], map, rig.kv_cfg);
    rig.services[static_cast<std::size_t>(chip)]->start();
  }
  rig.client = std::make_unique<tcsvc::KvClient>(*rig.cl, *rig.nodes[0], map,
                                                 rig.kv_cfg);
  for (int chip : rig.participants) {
    auto& agent = rig.agents[static_cast<std::size_t>(chip)];
    agent = std::make_unique<tcsvc::MembershipAgent>(
        *rig.cl, *rig.nodes[static_cast<std::size_t>(chip)], map);
    agent->start();
    agent->attach_service(rig.services[static_cast<std::size_t>(chip)].get());
  }
  rig.agents[0]->attach_client(rig.client.get());
  rig.coord = std::make_unique<tcsvc::MembershipCoordinator>(
      *rig.cl, *rig.agents[0], rig.participants, mem_cfg);
  rig.coord->start();
  for (int chip : rig.participants) {
    rig.nodes[static_cast<std::size_t>(chip)]->start(rig.participants).expect("start");
  }
  return rig;
}

/// Every acknowledged (key, value) must sit on BOTH members of its shard's
/// current pair — the strongest no-loss + fully-replicated check available
/// through the local oracle.
void expect_fully_replicated(
    const MemRig& rig,
    const std::map<std::string, std::vector<std::uint8_t>>& acked) {
  const tcsvc::ShardMap& m = rig.agents[0]->map();
  for (const auto& [key, value] : acked) {
    const int shard = m.shard_of(key);
    for (const int owner : {m.primary(shard), m.replica(shard)}) {
      ASSERT_GE(owner, 0);
      const auto& svc = rig.services[static_cast<std::size_t>(owner)];
      ASSERT_TRUE(svc != nullptr);
      auto copy = svc->peek(key);
      ASSERT_TRUE(copy.has_value())
          << key << " missing on chip " << owner << " (shard " << shard << ")";
      EXPECT_EQ(*copy, value) << key << " stale on chip " << owner;
    }
  }
}

// ------------------------------------------------------------------- join --

TEST(Membership, JoinStreamsShardsAndCommitsNewEpoch) {
  auto rig = make_mem_rig();
  std::map<std::string, std::vector<std::uint8_t>> acked;
  bool done = false;

  rig.cl->engine().spawn_fn([&]() -> sim::Task<void> {
    for (int i = 0; i < 48; ++i) {
      const std::string key = "key" + std::to_string(i);
      const auto value = bytes_of("v" + std::to_string(i));
      auto r = co_await rig.client->put(key, value);
      EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().to_string());
      if (r.ok()) acked[key] = value;
    }

    Status s = co_await rig.agents[4]->request_join(0);
    EXPECT_TRUE(s.ok()) << (s.ok() ? "" : s.error().to_string());

    // Cutover committed everywhere the protocol reaches.
    for (int chip : rig.participants) {
      EXPECT_EQ(rig.agents[static_cast<std::size_t>(chip)]->epoch(), 1u)
          << "chip " << chip << " missed the commit";
    }
    // Every key is still readable through the client (new map in force).
    for (const auto& [key, value] : acked) {
      auto got = co_await rig.client->get(key);
      EXPECT_TRUE(got.ok()) << key
                            << (got.ok() ? "" : ": " + got.error().to_string());
      if (got.ok()) { EXPECT_EQ(got.value(), value); }
    }
    done = true;
    rig.stop_all();
  });
  rig.cl->engine().run();
  ASSERT_TRUE(done);

  // The joiner serves now: it is in the server set and owns shards whose
  // data was streamed in.
  const auto& m = rig.agents[0]->map();
  EXPECT_EQ(m.servers(), (std::vector<int>{1, 2, 3, 4}));
  int owned_by_4 = 0;
  for (int s = 0; s < m.shards(); ++s) {
    if (m.primary(s) == 4 || m.replica(s) == 4) ++owned_by_4;
  }
  EXPECT_GT(owned_by_4, 0) << "rendezvous must hand the joiner some shards";
  EXPECT_GT(rig.agents[4]->stats().shards_in, 0u);
  EXPECT_GT(rig.agents[4]->stats().entries_in, 0u);
  EXPECT_EQ(rig.coord->stats().joins, 1u);
  EXPECT_EQ(rig.coord->stats().failed, 0u);
  expect_fully_replicated(rig, acked);
}

// ------------------------------------------------------------------ drain --

TEST(Membership, DrainMigratesShardsOutBeforeLeaving) {
  auto rig = make_mem_rig();
  std::map<std::string, std::vector<std::uint8_t>> acked;
  bool done = false;

  rig.cl->engine().spawn_fn([&]() -> sim::Task<void> {
    for (int i = 0; i < 48; ++i) {
      const std::string key = "key" + std::to_string(i);
      const auto value = bytes_of("v" + std::to_string(i));
      auto r = co_await rig.client->put(key, value);
      EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().to_string());
      if (r.ok()) acked[key] = value;
    }

    Status s = co_await rig.agents[3]->request_leave(0);
    EXPECT_TRUE(s.ok()) << (s.ok() ? "" : s.error().to_string());
    EXPECT_EQ(rig.agents[0]->epoch(), 1u);

    for (const auto& [key, value] : acked) {
      auto got = co_await rig.client->get(key);
      EXPECT_TRUE(got.ok()) << key
                            << (got.ok() ? "" : ": " + got.error().to_string());
      if (got.ok()) { EXPECT_EQ(got.value(), value); }
    }
    done = true;
    rig.stop_all();
  });
  rig.cl->engine().run();
  ASSERT_TRUE(done);

  const auto& m = rig.agents[0]->map();
  EXPECT_EQ(m.servers(), (std::vector<int>{1, 2}));
  EXPECT_EQ(rig.services[3]->entries(), 0u)
      << "a drained node must hold nothing after commit";
  EXPECT_EQ(rig.coord->stats().leaves, 1u);
  expect_fully_replicated(rig, acked);
}

// ---------------------------------------------------------------- eviction --

// The degraded-write-window regression: degraded acks accumulate while a
// partner is dead, and BEFORE this fix the counter never fell back once a
// rebalance restored full replication. Now eviction + re-seed must close the
// open window (degraded_open -> 0) while preserving the cumulative history.
TEST(Membership, EvictionReseedsReplicasAndClosesDegradedWindow) {
  auto rig = make_mem_rig(/*auto_heal=*/false);
  sim::Engine& engine = rig.cl->engine();
  rig.cl->start_keepalives(Picoseconds::from_us(2.0), Picoseconds::from_us(10.0));
  std::map<std::string, std::vector<std::uint8_t>> acked;
  std::uint64_t open_during_blackout = 0;
  bool done = false;

  rig.cl->engine().spawn_fn([&]() -> sim::Task<void> {
    // Four servers, then kill one: the survivors re-seed onto the rest.
    Status join = co_await rig.agents[4]->request_join(0);
    EXPECT_TRUE(join.ok()) << (join.ok() ? "" : join.error().to_string());
    for (int i = 0; i < 32; ++i) {
      const std::string key = "key" + std::to_string(i);
      const auto value = bytes_of("v" + std::to_string(i));
      auto r = co_await rig.client->put(key, value);
      EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().to_string());
      if (r.ok()) acked[key] = value;
    }

    rig.cl->driver(2).set_hung(true);
    rig.nodes[2]->stop();

    // Write through the blackout: survivors ack degraded on shards whose
    // partner was chip 2.
    for (int i = 0; i < 24; ++i) {
      const std::string key = "post" + std::to_string(i);
      const auto value = bytes_of("p" + std::to_string(i));
      auto r = co_await rig.client->put(
          key, value, engine.now() + Picoseconds::from_us(400.0));
      if (r.ok()) acked[key] = value;
    }
    open_during_blackout = rig.sum_degraded_open();
    EXPECT_GT(open_during_blackout, 0u)
        << "killing a partner under writes must open the degraded window";

    Status evict = co_await rig.coord->evict(2);
    EXPECT_TRUE(evict.ok()) << (evict.ok() ? "" : evict.error().to_string());
    EXPECT_EQ(rig.agents[0]->epoch(), 2u);  // join + eviction

    for (const auto& [key, value] : acked) {
      auto got = co_await rig.client->get(key);
      EXPECT_TRUE(got.ok()) << key
                            << (got.ok() ? "" : ": " + got.error().to_string());
      if (got.ok()) { EXPECT_EQ(got.value(), value); }
    }
    done = true;
    rig.cl->stop_keepalives();
    rig.stop_all();
  });
  rig.cl->engine().run();
  ASSERT_TRUE(done);

  const auto& m = rig.agents[0]->map();
  EXPECT_EQ(m.servers(), (std::vector<int>{1, 3, 4}));
  EXPECT_EQ(rig.coord->stats().evictions, 1u);
  // Regression core: the open window closed, the history survived.
  EXPECT_EQ(rig.sum_degraded_open(), 0u)
      << "re-seeding every shard must clear the open degraded window";
  EXPECT_GE(rig.sum_degraded_writes(), open_during_blackout)
      << "cumulative degraded history must be preserved";
  // Chip 2's copies are out of the placement; every acked write sits fully
  // replicated on the survivors.
  expect_fully_replicated(rig, acked);
}

TEST(Membership, DeadVerdictAutoEvictsWhenAutoHealOn) {
  auto rig = make_mem_rig(/*auto_heal=*/true);
  sim::Engine& engine = rig.cl->engine();
  rig.cl->start_keepalives(Picoseconds::from_us(2.0), Picoseconds::from_us(10.0));
  bool done = false;

  rig.cl->engine().spawn_fn([&]() -> sim::Task<void> {
    for (int i = 0; i < 8; ++i) {
      auto r = co_await rig.client->put("k" + std::to_string(i), bytes_of("v"));
      EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().to_string());
    }
    rig.cl->driver(3).set_hung(true);
    rig.nodes[3]->stop();
    // The coordinator's keepalive verdict should evict chip 3 on its own.
    const Picoseconds give_up = engine.now() + Picoseconds::from_us(2000.0);
    while (rig.agents[0]->epoch() < 1 && engine.now() < give_up) {
      co_await engine.delay(Picoseconds::from_us(10.0));
    }
    EXPECT_EQ(rig.agents[0]->epoch(), 1u) << "auto-heal eviction never committed";
    done = true;
    rig.cl->stop_keepalives();
    rig.stop_all();
  });
  rig.cl->engine().run();
  ASSERT_TRUE(done);
  EXPECT_EQ(rig.coord->stats().evictions, 1u);
  EXPECT_EQ(rig.agents[0]->map().servers(), (std::vector<int>{1, 2}));
}

// ------------------------------------------------------------- diagnostics --

TEST(Membership, HealthReportShowsPlacementSection) {
  auto rig = make_mem_rig();
  // Quiesce the rig (nothing ran; report is static).
  rig.stop_all();
  rig.cl->engine().run();

  const std::string report = health_report(*rig.cl);
  EXPECT_NE(report.find("placement (chip 0, epoch 0"), std::string::npos)
      << "health_report must carry the registered placement section:\n"
      << report;
  EXPECT_NE(report.find("shard  0: primary"), std::string::npos) << report;
}

}  // namespace
}  // namespace tcc
