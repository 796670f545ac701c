// tcstore mailbox tests: location-transparent delivery to named endpoints
// resolved through the committed ShardMap, typed dead-mailbox errors (never
// a silent drop), FIFO per (sender, mailbox) pair, and the moves that matter
// — the home's primary dies and the replica takes over mid-stream, and a
// live join commits a new epoch that relocates homes under traffic.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "tcsvc/kv.hpp"
#include "tcsvc/membership.hpp"
#include "tcsvc/rpc.hpp"
#include "tcstore/mailbox.hpp"

namespace tcc {
namespace {

using cluster::TcCluster;

struct Delivery {
  int chip = 0;    ///< where the handler ran
  int sender = 0;  ///< ctx.peer as seen by the handler
  std::uint32_t value = 0;
};

std::vector<std::uint8_t> value_bytes(std::uint32_t v) {
  std::vector<std::uint8_t> out(4);
  std::memcpy(out.data(), &v, 4);
  return out;
}

/// 4-node ring: chip 0 the sender, chips 1..3 run KV + mailbox services.
struct MailRig {
  std::unique_ptr<TcCluster> cl;
  std::vector<std::unique_ptr<tcsvc::RpcNode>> nodes;
  std::vector<std::unique_ptr<tcsvc::KvService>> kvs;
  std::vector<std::unique_ptr<tcstore::MailboxService>> mail;
  std::unique_ptr<tcstore::MailboxClient> client;
  tcsvc::ShardMap map{{1, 2, 3}, 16, 0x7cc};
  std::vector<Delivery> log;

  void stop_all() {
    for (auto& n : nodes) {
      if (n) n->stop();
    }
  }

  /// Open `name` on every server, recording deliveries into `log`.
  void open_everywhere(const std::string& name) {
    for (int chip = 1; chip <= 3; ++chip) {
      mail[static_cast<std::size_t>(chip)]->open(
          name, [this, chip](int sender, std::span<const std::uint8_t> payload) {
            Delivery d;
            d.chip = chip;
            d.sender = sender;
            ASSERT_EQ(payload.size(), 4u);
            std::memcpy(&d.value, payload.data(), 4);
            log.push_back(d);
          });
    }
  }

  std::uint64_t sum_stat(std::uint64_t tcstore::MailboxStats::* field) const {
    std::uint64_t sum = 0;
    for (const auto& m : mail) {
      if (m) sum += m->stats().*field;
    }
    return sum;
  }
};

MailRig make_mail_rig() {
  MailRig rig;
  TcCluster::Options o;
  o.topology.shape = topology::ClusterShape::kRing;
  o.topology.nx = 4;
  o.topology.dram_per_chip = 64_MiB;
  o.boot.model_code_fetch = false;
  rig.cl = TcCluster::create(o).value();
  rig.cl->boot().expect("boot");
  rig.map = tcsvc::ShardMap::from_plan(rig.cl->plan(), {1, 2, 3}, 16);
  const int n = rig.cl->num_nodes();
  std::vector<int> all_chips;
  for (int chip = 0; chip < n; ++chip) all_chips.push_back(chip);
  rig.nodes.resize(static_cast<std::size_t>(n));
  rig.kvs.resize(static_cast<std::size_t>(n));
  rig.mail.resize(static_cast<std::size_t>(n));
  for (int chip = 0; chip < n; ++chip) {
    rig.nodes[static_cast<std::size_t>(chip)] =
        std::make_unique<tcsvc::RpcNode>(*rig.cl, chip);
  }
  for (int chip = 1; chip < n; ++chip) {
    const auto i = static_cast<std::size_t>(chip);
    rig.kvs[i] = std::make_unique<tcsvc::KvService>(*rig.cl, *rig.nodes[i], rig.map);
    rig.kvs[i]->start();
    rig.mail[i] = std::make_unique<tcstore::MailboxService>(*rig.cl, *rig.nodes[i],
                                                            *rig.kvs[i]);
    rig.mail[i]->start();
    rig.nodes[i]->start(all_chips).expect("start");
  }
  rig.client = std::make_unique<tcstore::MailboxClient>(*rig.cl, *rig.nodes[0],
                                                        rig.map);
  return rig;
}

// ------------------------------------------------------------- delivery --

TEST(Mailbox, DeliversAtTheNamesHomeWithSenderIdentity) {
  auto rig = make_mail_rig();
  rig.open_everywhere("jobs");
  bool done = false;
  rig.cl->engine().spawn_fn([&]() -> sim::Task<void> {
    for (std::uint32_t v = 1; v <= 3; ++v) {
      Status s = co_await rig.client->send("jobs", value_bytes(v));
      EXPECT_TRUE(s.ok()) << (s.ok() ? "" : s.error().to_string());
    }
    done = true;
    rig.stop_all();
  });
  rig.cl->engine().run();
  ASSERT_TRUE(done);

  // Exactly once each, at exactly the home the name hashes to, with the
  // sender chip attached.
  const int home = rig.map.primary(rig.map.shard_of("jobs"));
  ASSERT_EQ(rig.log.size(), 3u);
  for (std::size_t i = 0; i < rig.log.size(); ++i) {
    EXPECT_EQ(rig.log[i].chip, home) << "delivered away from the name's home";
    EXPECT_EQ(rig.log[i].sender, 0);
    EXPECT_EQ(rig.log[i].value, static_cast<std::uint32_t>(i + 1));
  }
  EXPECT_EQ(rig.sum_stat(&tcstore::MailboxStats::delivered), 3u);
  EXPECT_EQ(rig.sum_stat(&tcstore::MailboxStats::duplicates), 0u);
  EXPECT_EQ(rig.sum_stat(&tcstore::MailboxStats::dead_letters), 0u);
}

TEST(Mailbox, DeadMailboxIsTypedNeverSilent) {
  auto rig = make_mail_rig();
  rig.open_everywhere("alive");
  bool done = false;
  rig.cl->engine().spawn_fn([&]() -> sim::Task<void> {
    // Nobody ever opened this name: typed kNotFound, not a dropped ack.
    Status dead = co_await rig.client->send("nobody-home", value_bytes(1));
    EXPECT_FALSE(dead.ok());
    if (dead.ok()) { rig.stop_all(); co_return; }
    EXPECT_EQ(dead.error().code, ErrorCode::kNotFound);
    EXPECT_NE(dead.error().message.find("dead mailbox"), std::string::npos);

    // A closed mailbox degrades to the same typed error.
    Status ok = co_await rig.client->send("alive", value_bytes(2));
    EXPECT_TRUE(ok.ok()) << (ok.ok() ? "" : ok.error().to_string());
    for (int chip = 1; chip <= 3; ++chip) {
      rig.mail[static_cast<std::size_t>(chip)]->close("alive");
      EXPECT_FALSE(rig.mail[static_cast<std::size_t>(chip)]->is_open("alive"));
    }
    Status closed = co_await rig.client->send("alive", value_bytes(3));
    EXPECT_FALSE(closed.ok());
    if (closed.ok()) { rig.stop_all(); co_return; }
    EXPECT_EQ(closed.error().code, ErrorCode::kNotFound);

    done = true;
    rig.stop_all();
  });
  rig.cl->engine().run();
  ASSERT_TRUE(done);
  EXPECT_EQ(rig.log.size(), 1u) << "only the one pre-close send may deliver";
  EXPECT_EQ(rig.sum_stat(&tcstore::MailboxStats::dead_letters), 2u);
}

TEST(Mailbox, FifoPerSenderMailboxPair) {
  auto rig = make_mail_rig();
  rig.open_everywhere("queue");
  constexpr std::uint32_t kMessages = 24;
  bool done = false;
  rig.cl->engine().spawn_fn([&]() -> sim::Task<void> {
    for (std::uint32_t v = 1; v <= kMessages; ++v) {
      Status s = co_await rig.client->send("queue", value_bytes(v));
      EXPECT_TRUE(s.ok()) << (s.ok() ? "" : s.error().to_string());
    }
    done = true;
    rig.stop_all();
  });
  rig.cl->engine().run();
  ASSERT_TRUE(done);

  ASSERT_EQ(rig.log.size(), static_cast<std::size_t>(kMessages));
  for (std::uint32_t v = 1; v <= kMessages; ++v) {
    ASSERT_EQ(rig.log[v - 1].value, v)
        << "message " << v << " delivered out of order";
  }
}

// ------------------------------------------------------------- failover --

TEST(MailboxFailover, HomeDiesAndReplicaTakesOverInOrder) {
  auto rig = make_mail_rig();
  sim::Engine& engine = rig.cl->engine();
  rig.cl->start_keepalives(Picoseconds::from_us(2.0), Picoseconds::from_us(10.0));

  // A name whose home we will kill mid-stream.
  const std::string name = "ha-box";
  rig.open_everywhere(name);
  const int shard = rig.map.shard_of(name);
  const int home = rig.map.primary(shard);
  const int standby = rig.map.replica(shard);

  bool done = false;
  rig.cl->engine().spawn_fn([&]() -> sim::Task<void> {
    for (std::uint32_t v = 1; v <= 8; ++v) {
      Status s = co_await rig.client->send(name, value_bytes(v));
      EXPECT_TRUE(s.ok()) << (s.ok() ? "" : s.error().to_string());
    }

    // Kill the home between sends: the client's next attempts ride out the
    // keepalive verdict, then land on the replica (now acting primary).
    rig.cl->driver(home).set_hung(true);
    rig.nodes[static_cast<std::size_t>(home)]->stop();

    for (std::uint32_t v = 9; v <= 16; ++v) {
      Status s = co_await rig.client->send(
          name, value_bytes(v), engine.now() + Picoseconds::from_us(400.0));
      EXPECT_TRUE(s.ok()) << "post-fault send " << v << ": "
                          << (s.ok() ? "" : s.error().to_string());
    }

    // Dead-mailbox stays typed across failover: close it on the standby and
    // the next send reports kNotFound, never a silent drop.
    rig.mail[static_cast<std::size_t>(standby)]->close(name);
    Status dead = co_await rig.client->send(
        name, value_bytes(17), engine.now() + Picoseconds::from_us(400.0));
    EXPECT_FALSE(dead.ok());
    if (dead.ok()) {
      rig.cl->stop_keepalives();
      rig.stop_all();
      co_return;
    }
    EXPECT_EQ(dead.error().code, ErrorCode::kNotFound);

    done = true;
    rig.cl->stop_keepalives();
    rig.stop_all();
  });
  rig.cl->engine().run();
  ASSERT_TRUE(done);

  // One combined stream, exactly once, in order: the pre-fault prefix at the
  // old home, the post-fault suffix at the promoted replica. The boundary has
  // one message of slack: RpcNode::stop() lets a recv already in flight
  // finish serving, so the dying home may deliver message 9 before going
  // quiet — what must never happen is a later message at the home after the
  // standby has taken over.
  ASSERT_EQ(rig.log.size(), 16u);
  std::size_t switch_at = rig.log.size();
  for (std::uint32_t v = 1; v <= 16; ++v) {
    ASSERT_EQ(rig.log[v - 1].value, v)
        << "message " << v << " lost, duplicated, or reordered across failover";
    if (switch_at == rig.log.size()) {
      if (rig.log[v - 1].chip == standby) {
        switch_at = v - 1;
      } else {
        EXPECT_EQ(rig.log[v - 1].chip, home);
      }
    } else {
      EXPECT_EQ(rig.log[v - 1].chip, standby)
          << "message " << v << " delivered at the dead home after takeover";
    }
  }
  EXPECT_GE(switch_at, 8u);  // everything pre-fault landed at the home
  EXPECT_LE(switch_at, 9u);  // at most the one in-flight serve after the kill
  EXPECT_GT(rig.client->stats().failover_routes, 0u);
  EXPECT_EQ(rig.sum_stat(&tcstore::MailboxStats::duplicates), 0u);
}

// ----------------------------------------------------------- epoch bump --

// A live join commits a new epoch whose map may relocate mailbox homes; the
// sender's per-name FIFO must hold straight through the cutover, and a name
// homed on the joiner afterwards must deliver there.
TEST(MailboxMembership, FifoHoldsAcrossJoinEpochBump) {
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
  std::vector<std::unique_ptr<tcstore::MailboxService>> mail(
      static_cast<std::size_t>(n));
  std::vector<std::unique_ptr<tcsvc::MembershipAgent>> agents(
      static_cast<std::size_t>(n));
  std::vector<Delivery> log;

  for (int chip : participants) {
    nodes[static_cast<std::size_t>(chip)] = std::make_unique<tcsvc::RpcNode>(*cl, chip);
  }
  for (int chip : {1, 2, 3, 4}) {
    const auto i = static_cast<std::size_t>(chip);
    kvs[i] = std::make_unique<tcsvc::KvService>(*cl, *nodes[i], map);
    kvs[i]->start();
    mail[i] = std::make_unique<tcstore::MailboxService>(*cl, *nodes[i], *kvs[i]);
    mail[i]->start();
  }
  for (int chip : participants) {
    auto& agent = agents[static_cast<std::size_t>(chip)];
    agent = std::make_unique<tcsvc::MembershipAgent>(
        *cl, *nodes[static_cast<std::size_t>(chip)], map);
    agent->start();
    agent->attach_service(kvs[static_cast<std::size_t>(chip)].get());
  }
  auto coord = std::make_unique<tcsvc::MembershipCoordinator>(*cl, *agents[0],
                                                              participants);
  coord->start();
  for (int chip : participants) {
    nodes[static_cast<std::size_t>(chip)]->start(participants).expect("start");
  }
  auto client = std::make_unique<tcstore::MailboxClient>(*cl, *nodes[0], map);
  client->set_membership(agents[0].get());

  auto open_on = [&](int chip, const std::string& name) {
    mail[static_cast<std::size_t>(chip)]->open(
        name, [&log, chip](int sender, std::span<const std::uint8_t> payload) {
          Delivery d;
          d.chip = chip;
          d.sender = sender;
          ASSERT_EQ(payload.size(), 4u);
          std::memcpy(&d.value, payload.data(), 4);
          log.push_back(d);
        });
  };
  for (int chip : {1, 2, 3, 4}) open_on(chip, "epoch-box");

  bool done = false;
  cl->engine().spawn_fn([&]() -> sim::Task<void> {
    sim::Engine& engine = cl->engine();
    for (std::uint32_t v = 1; v <= 6; ++v) {
      Status s = co_await client->send("epoch-box", value_bytes(v));
      EXPECT_TRUE(s.ok()) << (s.ok() ? "" : s.error().to_string());
    }

    Status join = co_await agents[4]->request_join(0);
    EXPECT_TRUE(join.ok()) << (join.ok() ? "" : join.error().to_string());
    if (!join.ok()) {
      cl->stop_keepalives();
      for (auto& node : nodes) {
        if (node) node->stop();
      }
      co_return;
    }
    EXPECT_EQ(agents[0]->epoch(), 1u);

    for (std::uint32_t v = 7; v <= 12; ++v) {
      Status s = co_await client->send(
          "epoch-box", value_bytes(v), engine.now() + Picoseconds::from_us(400.0));
      EXPECT_TRUE(s.ok()) << (s.ok() ? "" : s.error().to_string());
    }

    // The committed map now includes the joiner: find a name it homes and
    // prove the derived-home rule routes there with no registry update.
    const tcsvc::ShardMap& m = agents[0]->map();
    std::string joiner_name;
    for (int i = 0; i < 4000 && joiner_name.empty(); ++i) {
      std::string cand = strprintf("j%d", i);
      if (m.primary(m.shard_of(cand)) == 4) joiner_name = std::move(cand);
    }
    EXPECT_FALSE(joiner_name.empty());
    if (joiner_name.empty()) {
      cl->stop_keepalives();
      for (auto& node : nodes) {
        if (node) node->stop();
      }
      co_return;
    }
    for (int chip : {1, 2, 3, 4}) open_on(chip, joiner_name);
    Status s = co_await client->send(joiner_name, value_bytes(100),
                                     engine.now() + Picoseconds::from_us(400.0));
    EXPECT_TRUE(s.ok()) << (s.ok() ? "" : s.error().to_string());

    done = true;
    cl->stop_keepalives();
    for (auto& node : nodes) {
      if (node) node->stop();
    }
  });
  cl->engine().run();
  ASSERT_TRUE(done);

  // 1..12 delivered exactly once in order across the epoch bump, then the
  // joiner-homed message at chip 4.
  ASSERT_EQ(log.size(), 13u);
  for (std::uint32_t v = 1; v <= 12; ++v) {
    ASSERT_EQ(log[v - 1].value, v)
        << "message " << v << " lost, duplicated, or reordered across the join";
  }
  EXPECT_EQ(log.back().value, 100u);
  EXPECT_EQ(log.back().chip, 4);
  EXPECT_EQ(coord->stats().joins, 1u);
  EXPECT_EQ(coord->stats().failed, 0u);
}

}  // namespace
}  // namespace tcc
