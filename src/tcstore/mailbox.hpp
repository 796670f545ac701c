// tcstore mailboxes: location-transparent addressed delivery where named
// service endpoints — not chips — are the targets (the RethinkDB
// rpc/mailbox idea, rebuilt on tcsvc RPC + membership).
//
// A mailbox is a name. Its *home* is derived, never stored: the name hashes
// onto the shard ring exactly like a KV key, and the home chip is whatever
// node is acting primary for that shard under the committed ShardMap. That
// one rule buys the properties that matter:
//
//  * location transparency — senders address "worker-queue-7", not chip 3;
//    nobody maintains a registry that could go stale,
//  * failover survival — when the home's primary is judged dead, the same
//    acting-primary rule that reroutes KV traffic reroutes mailbox sends to
//    the surviving replica; an epoch commit after a reshard moves homes the
//    same way. A service that wants a mailbox to survive these moves opens
//    it on every chip that can become its home (a mailbox is a *service*
//    endpoint, replicated like the service itself, not a datum),
//  * typed dead-mailbox errors — a send to a name nobody opened at its home
//    returns kNotFound ("dead mailbox"), never a silent drop.
//
// Ordering: FIFO per (sender chip, mailbox) pair. The client serializes
// sends per name behind a sim::Mutex and stamps each message with a per-name
// sequence consumed exactly once (retries reuse it); the home delivers in
// seq order and ok-acks duplicates without redelivering, so a retry whose
// original did land cannot double-deliver, and the pair's order holds across
// a membership epoch bump (a new home adopts the first seq it sees — the
// client never advances to seq k+1 before k reached a final outcome).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/mutex.hpp"
#include "tcstore/store.hpp"

namespace tcc::tcstore {

struct MailboxConfig {
  Picoseconds op_deadline = Picoseconds::from_us(500.0);
  Picoseconds attempt_deadline = Picoseconds::from_us(60.0);
  /// Modeled CPU service time of one delivery (lookup + handler dispatch).
  Picoseconds deliver_compute = Picoseconds::from_ns(200.0);
  Picoseconds retry_backoff = Picoseconds::from_us(2.0);
};

struct MailboxStats {
  std::uint64_t delivered = 0;
  std::uint64_t duplicates = 0;         ///< ok-acked without redelivery
  std::uint64_t dead_letters = 0;       ///< typed kNotFound: no such mailbox
  std::uint64_t wrong_home_rejects = 0; ///< not acting primary for the name
};

/// One node's mailbox endpoint: registers the kMailboxSend handler and
/// delivers to locally opened mailboxes when this node is the name's home.
class MailboxService {
 public:
  /// Delivery callback: sender chip + message payload.
  using Handler = std::function<void(int sender, std::span<const std::uint8_t>)>;

  MailboxService(cluster::TcCluster& cluster, tcsvc::RpcNode& rpc,
                 tcsvc::KvService& kv, MailboxConfig cfg = {});

  MailboxService(const MailboxService&) = delete;
  MailboxService& operator=(const MailboxService&) = delete;

  /// Register the kMailboxSend handler on the shared RpcNode.
  void start();

  /// Open (or replace) `name` on this node. Delivery happens here only while
  /// this node is the name's home; open the mailbox on every chip that can
  /// become the home to survive failover/resharding.
  void open(std::string name, Handler handler);
  /// Close `name`: subsequent sends that home here get the typed
  /// dead-mailbox error.
  void close(std::string_view name);
  [[nodiscard]] bool is_open(std::string_view name) const;

  [[nodiscard]] int chip() const { return rpc_.chip(); }
  [[nodiscard]] const MailboxStats& stats() const { return stats_; }

 private:
  [[nodiscard]] sim::Task<Result<std::vector<std::uint8_t>>> on_send(
      const tcsvc::RpcContext& ctx, std::span<const std::uint8_t> body);

  cluster::TcCluster& cluster_;
  tcsvc::RpcNode& rpc_;
  tcsvc::KvService& kv_;
  MailboxConfig cfg_;
  std::map<std::string, Handler, std::less<>> boxes_;
  /// (mailbox, sender chip) -> highest seq delivered; duplicates at or below
  /// it ok-ack without redelivery.
  std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> last_seq_;
  MailboxStats stats_;
};

struct MailboxClientStats : tcsvc::RouteStats {
  std::uint64_t sends = 0;
};

/// Sending side: resolves a name's home through the committed map per
/// attempt, serializes sends per name (FIFO per sender->mailbox pair), and
/// retries availability trouble against the shard's other copy — all through
/// the tcsvc::RoutedCaller KvClient uses.
class MailboxClient {
 public:
  MailboxClient(cluster::TcCluster& cluster, tcsvc::RpcNode& rpc,
                tcsvc::ShardMap map, MailboxConfig cfg = {});

  /// Deliver `payload` to mailbox `name`, wherever it currently lives.
  /// kNotFound = dead mailbox (typed, final); ok = delivered exactly once.
  [[nodiscard]] sim::Task<Status> send(
      std::string_view name, std::span<const std::uint8_t> payload,
      std::optional<Picoseconds> deadline = std::nullopt);

  [[nodiscard]] const MailboxClientStats& stats() const { return stats_; }
  [[nodiscard]] const tcsvc::ShardMap& shard_map() const {
    return route_.shard_map();
  }
  void set_membership(const tcsvc::MembershipAgent* membership) {
    route_.set_membership(membership);
  }

 private:
  /// Per-name send state: the FIFO sequencer mutex and the next seq. A seq
  /// is consumed once per send() (retries reuse it), so a lost ack can at
  /// worst produce a duplicate the home suppresses — never a reorder.
  struct Box {
    explicit Box(sim::Engine& engine)
        : mutex(std::make_unique<sim::Mutex>(engine)) {}
    std::unique_ptr<sim::Mutex> mutex;
    std::uint64_t next_seq = 1;
  };

  cluster::TcCluster& cluster_;
  std::map<std::string, Box, std::less<>> boxes_;
  MailboxClientStats stats_;
  tcsvc::RoutedCaller route_;
};

}  // namespace tcc::tcstore
