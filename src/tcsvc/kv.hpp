// tcsvc KV: a sharded, primary/replica-replicated in-memory key-value
// service over the RPC layer — the repo's first end-to-end serving workload
// (the "millions of users" tier of the ROADMAP north star, scaled to the
// simulator).
//
// Placement is consistent hashing from the cluster plan: keys hash (FNV-1a)
// onto a fixed shard ring, and each shard picks its primary and replica by
// rendezvous (highest-random-weight) hashing over the server set, seeded
// from the plan's master seed — deterministic, uniform, and stable under
// server-set changes (only the shards owned by a removed server move).
//
// Replication and failover lean on the fault machinery below instead of
// reinventing it:
//
//  * a put applies on the primary, then replicates synchronously to the
//    replica over a dedicated RPC channel; the client is acked only once
//    both copies exist (or the replica is already judged dead — a counted
//    "degraded" ack, refused when this chip judges every other server dead).
//    No acknowledged write is lost when either single node dies. tcstore's
//    ops go through the same replication step (KvService::replicate).
//  * failover is epoch-aware by construction: the TcDriver keepalive
//    verdict that declares the primary dead is the same edge that bumps
//    the tcrel membership epoch, so a promoted replica starts serving in
//    the first epoch after the fault. In-flight client frames ride tcrel's
//    replay of its unacked window across the bump; writes the dead primary
//    never acked surface as client timeouts and are retried against the
//    replica.
//  * the replica promotes itself per-request ("acting primary": configured
//    primary, or replica while the primary is judged dead) and the client
//    routes the same way, so there is no separate view-change protocol to
//    keep consistent — the membership epoch IS the view.
//
// Versions are per-shard monotonic counters assigned by the acting primary;
// replica apply is version-gated, so tcrel replays and client retries are
// idempotent.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "tcsvc/rpc.hpp"
#include "topology/plan.hpp"

namespace tcc::tcsvc {

class MembershipAgent;  // membership.hpp (layered above the KV service)

/// RPC method ids of the KV protocol.
inline constexpr std::uint16_t kKvGet = 1;
inline constexpr std::uint16_t kKvPut = 2;
inline constexpr std::uint16_t kKvReplicate = 3;

/// Consistent-hash shard placement over a server set.
class ShardMap {
 public:
  /// `servers` are the serving chips (ascending); `seed` decorrelates the
  /// rendezvous scores from the key hash. `fault_domains` (chip -> domain)
  /// optionally makes placement domain-aware: each shard's replica becomes
  /// the best-scored server in a *different* domain than its primary, so no
  /// single domain holds both copies. When no out-of-domain server exists
  /// (or the map is empty) the overall runner-up is kept — the original
  /// domain-blind behaviour.
  ShardMap(std::vector<int> servers, int shards, std::uint64_t seed,
           std::map<int, int> fault_domains = {});

  /// Placement seeded from the cluster plan's master seed, so the shard
  /// layout is as reproducible as every other derived stream. Fault domains
  /// come from the plan too: a server's domain is its Supernode's coordinate
  /// along the outermost topology dimension (the z-plane of a 3-D torus), so
  /// a plane cut never takes both copies of a shard.
  static ShardMap from_plan(const topology::ClusterPlan& plan,
                            std::vector<int> servers, int shards);

  [[nodiscard]] int shards() const { return static_cast<int>(primary_.size()); }
  [[nodiscard]] const std::vector<int>& servers() const { return servers_; }

  [[nodiscard]] int shard_of(std::string_view key) const;
  [[nodiscard]] int primary(int shard) const;
  /// The replica chip, or -1 with a single server (no replication possible).
  [[nodiscard]] int replica(int shard) const;
  /// The other member of a shard's (primary, replica) pair, or -1.
  [[nodiscard]] int partner_of(int shard, int chip) const;

  /// Fault domain of a server chip, or -1 when placement is domain-blind.
  [[nodiscard]] int domain_of(int chip) const;

  /// Printable placement table (examples, diag).
  [[nodiscard]] std::string describe() const;

 private:
  std::vector<int> servers_;
  std::uint64_t seed_;
  std::map<int, int> domains_;
  std::vector<int> primary_;
  std::vector<int> replica_;
};

/// Counters of a routed client's retry loop.
struct RouteStats {
  std::uint64_t retries = 0;
  std::uint64_t failover_routes = 0;  ///< attempts routed to the replica
};

/// The route/retry/failover loop every serving-tier client shares (KvClient,
/// tcstore's StoreClient and MailboxClient). Each attempt re-resolves the
/// shard's placement — the membership agent's map once one is attached, so a
/// cutover that lands between attempts reroutes the very next one — and
/// targets the acting primary: the configured primary, or the replica while
/// the primary is judged dead or the previous attempt went to the primary.
class RoutedCaller {
 public:
  RoutedCaller(cluster::TcCluster& cluster, RpcNode& rpc, ShardMap map,
               Picoseconds op_deadline, Picoseconds attempt_deadline,
               Picoseconds retry_backoff, RouteStats& stats);

  // Holds a reference into its owner (the client's stats): a copy would
  // count into the original's.
  RoutedCaller(const RoutedCaller&) = delete;
  RoutedCaller& operator=(const RoutedCaller&) = delete;

  /// The absolute deadline of an operation: `deadline`, or the default
  /// operation budget from now.
  [[nodiscard]] Picoseconds deadline(std::optional<Picoseconds> deadline) const;

  /// Call `method` on `shard`'s acting primary. Semantic outcomes
  /// (kNotFound, kInvalidArgument, kResourceExhausted, kProtocolViolation)
  /// are final; any other failure retries against the shard's other copy
  /// after `retry_backoff`, while the next attempt can start before
  /// `deadline`. A payload carrying an op identity keeps it across attempts.
  [[nodiscard]] sim::Task<Result<std::vector<std::uint8_t>>> call(
      std::uint16_t method, int shard, std::vector<std::uint8_t> payload,
      Picoseconds deadline);

  [[nodiscard]] int chip() const { return rpc_.chip(); }
  [[nodiscard]] const ShardMap& shard_map() const;
  void set_membership(const MembershipAgent* membership) {
    membership_ = membership;
  }

 private:
  cluster::TcCluster& cluster_;
  RpcNode& rpc_;
  ShardMap map_;
  const MembershipAgent* membership_ = nullptr;
  Picoseconds op_deadline_;
  Picoseconds attempt_deadline_;
  Picoseconds retry_backoff_;
  RouteStats& stats_;
};

/// Shared client/server tuning.
struct KvConfig {
  int shards = 16;
  /// Default absolute-deadline budget of one client operation (covers every
  /// retry and failover reroute inside it).
  Picoseconds op_deadline = Picoseconds::from_us(500.0);
  /// Budget of a single attempt within an operation: an attempt against a
  /// node that died mid-request times out after this and the retry loop
  /// reroutes, instead of one dead target eating the whole op budget.
  Picoseconds attempt_deadline = Picoseconds::from_us(60.0);
  /// Replication sub-call budget of puts and tcstore ops (must leave room
  /// for a client retry).
  Picoseconds replicate_deadline = Picoseconds::from_us(100.0);
  /// Modeled CPU service time per op (hash + lookup / store).
  Picoseconds get_compute = Picoseconds::from_ns(150.0);
  Picoseconds put_compute = Picoseconds::from_ns(300.0);
  /// Backoff between client retry attempts (lets a keepalive verdict or an
  /// epoch sync land instead of hammering a dying node).
  Picoseconds retry_backoff = Picoseconds::from_us(2.0);
};

/// Server-side counters. Admission, replication and degraded-ack counters
/// cover tcstore's ops as well as gets and puts.
struct KvStats {
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
  std::uint64_t misses = 0;
  std::uint64_t replications_out = 0;  ///< partner replicate calls issued as primary
  std::uint64_t replications_in = 0;   ///< kKvReplicate frames applied as replica
  std::uint64_t not_primary_rejects = 0;
  std::uint64_t degraded_writes = 0;   ///< acked with the partner judged dead (cumulative)
  std::uint64_t degraded_open = 0;     ///< degraded acks not yet re-replicated; cleared
                                       ///< once every owned shard has a live partner again
  std::uint64_t failover_serves = 0;   ///< ops served while acting for a dead primary
};

/// One node's slice of the store: registers the KV handlers on an RpcNode
/// and serves every shard this node is acting primary or replica for.
class KvService {
 public:
  KvService(cluster::TcCluster& cluster, RpcNode& rpc, ShardMap map,
            KvConfig cfg = {});

  KvService(const KvService&) = delete;
  KvService& operator=(const KvService&) = delete;

  /// Register the kKvGet/kKvPut/kKvReplicate handlers. Pumps start when the
  /// RpcNode starts; stop serving via RpcNode::stop().
  void start();

  [[nodiscard]] int chip() const { return rpc_.chip(); }
  [[nodiscard]] const KvStats& stats() const { return stats_; }
  /// The placement currently in force: the membership agent's map once one
  /// is attached (it advances with each committed epoch), else the map the
  /// service was built with.
  [[nodiscard]] const ShardMap& shard_map() const;

  // ---- membership hooks ---------------------------------------------------
  /// Attach the node's membership agent: placement becomes epoch-driven and
  /// acked writes are dual-written to migration targets while this node is a
  /// rebalance stream source (MembershipAgent::attach_service calls this).
  void set_membership(MembershipAgent* membership) { membership_ = membership; }

  /// One streamed entry of a shard migration.
  struct ExportedEntry {
    std::string key;
    std::uint64_t version = 0;
    std::vector<std::uint8_t> value;
    std::int64_t expires_at_ps = 0;  ///< absolute sim time; 0 = never
  };
  /// Keys of `shard` strictly after `after_key` (empty = from the start), in
  /// key order, stopping before `max_bytes` of key+value payload (always at
  /// least one entry when any remain) — the bounded-chunk export cursor.
  [[nodiscard]] std::vector<ExportedEntry> export_shard(
      int shard, std::string_view after_key, std::uint32_t max_bytes) const;
  /// Version-gated apply of a streamed/forwarded entry (idempotent; also the
  /// replica write path). `expires_at_ps` is the absolute expiry the acting
  /// primary assigned (0 = never) — copies never re-derive it, so every
  /// replica agrees on the key's visible lifetime.
  void apply_entry(int shard, std::string_view key, std::uint64_t version,
                   std::span<const std::uint8_t> value,
                   std::int64_t expires_at_ps = 0);
  /// Drop every entry of `shard` and restart its version sequence — a
  /// migration target clears any stale copy before the stream begins.
  void reset_shard(int shard);
  /// Post-commit hooks: drop shards this node no longer owns under the new
  /// map, and close the degraded-write window if every owned shard has a
  /// live partner again.
  void drop_unowned();
  void clear_degraded_if_restored();

  // ---- store-layer hooks (src/tcstore) ------------------------------------
  /// One expiry-aware read. A key past its expiry reads as absent and is
  /// lazily erased (the periodic sweep handles keys nobody reads); whether a
  /// copy has physically erased an expired entry is unobservable, because
  /// every read re-checks the absolute expiry under the same sim clock.
  struct ReadEntry {
    std::uint64_t version = 0;
    std::vector<std::uint8_t> value;
    std::int64_t expires_at_ps = 0;
  };
  [[nodiscard]] std::optional<ReadEntry> read_entry(int shard,
                                                    std::string_view key,
                                                    bool* expired = nullptr);
  /// Primary-side versioned write (the store-op path): assigns the shard's
  /// next version, stores value + absolute expiry, returns the version.
  std::uint64_t write_entry(int shard, std::string_view key,
                            std::span<const std::uint8_t> value,
                            std::int64_t expires_at_ps);
  /// Erase every entry whose expiry has passed, across all shards this node
  /// holds; returns the number erased (the periodic TTL sweep).
  std::uint64_t sweep_expired();

  /// Admit a client op on `shard`: the typed kFailedPrecondition reject
  /// (counted) unless this node is the shard's acting primary; counts a
  /// failover serve when it acts for a dead primary.
  [[nodiscard]] Status admit(int shard);

  /// The replication of one acting-primary write. The caller encodes the
  /// frames in its own protocol; replicate() decides where they go and
  /// whether the write may be acked.
  struct Fanout {
    std::uint16_t method = 0;  ///< kKvReplicate or tcstore's kStoreReplicateOp
    std::vector<std::uint8_t> partner_frame;  ///< empty once delivered
    std::vector<std::uint8_t> forward_frame;  ///< empty once delivered
    std::vector<int> forward_targets;         ///< from capture_forwards()
  };
  /// The shard's dual-write targets right now, minus this chip and its
  /// partner. Capture them before the write mutates state, never at send
  /// time: a rebalance COMMIT landing mid-replication clears the live set,
  /// and the write would slip between the snapshot stream (whose cursor
  /// already passed the key) and the never-sent forward.
  [[nodiscard]] std::vector<int> capture_forwards(int shard) const;
  /// Push `fanout`'s pending frames: the partner frame to the shard's
  /// partner (re-derived per call, so a retry after an epoch bump reaches
  /// the current one), the forward frame to the captured targets. Ok once
  /// nothing is pending. kUnavailable when a live copy missed the write, so
  /// the client retries; a partner judged dead degrades the ack (counted)
  /// unless this chip looks isolated.
  [[nodiscard]] sim::Task<Status> replicate(int shard, Fanout& fanout,
                                            Picoseconds deadline);

  // ---- introspection (tests, diag) ---------------------------------------
  [[nodiscard]] std::uint64_t entries() const;
  /// Local lookup without RPC or timing — test oracle for replication.
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> peek(
      std::string_view key) const;
  [[nodiscard]] std::uint64_t version_of(std::string_view key) const;
  /// True when this node currently serves `shard` (configured primary, or
  /// replica with the primary judged dead).
  [[nodiscard]] bool acting_primary(int shard) const;

 private:
  struct Entry {
    std::uint64_t version = 0;
    std::vector<std::uint8_t> value;
    std::int64_t expires_at_ps = 0;  ///< absolute; 0 = never expires
  };

  [[nodiscard]] bool entry_expired(const Entry& e) const;
  /// True when this chip judges every other server dead — its keepalive
  /// verdicts are then worthless (it is far more likely the cut-off side of
  /// a partition than the last survivor), and a single-copy ack would be
  /// stranded the moment the rest of the cluster evicts it.
  [[nodiscard]] bool isolated() const;

  [[nodiscard]] sim::Task<Result<std::vector<std::uint8_t>>> on_get(
      const RpcContext& ctx, std::span<const std::uint8_t> body);
  [[nodiscard]] sim::Task<Result<std::vector<std::uint8_t>>> on_put(
      const RpcContext& ctx, std::span<const std::uint8_t> body);
  [[nodiscard]] sim::Task<Result<std::vector<std::uint8_t>>> on_replicate(
      const RpcContext& ctx, std::span<const std::uint8_t> body);

  cluster::TcCluster& cluster_;
  RpcNode& rpc_;
  ShardMap map_;
  KvConfig cfg_;
  MembershipAgent* membership_ = nullptr;
  /// shard -> ordered key map (std::map: deterministic iteration).
  std::vector<std::map<std::string, Entry, std::less<>>> store_;
  /// Highest version assigned or applied per shard; a promoted replica
  /// continues the sequence past everything it has seen.
  std::vector<std::uint64_t> next_version_;
  KvStats stats_;
};

/// Client-side counters.
struct KvClientStats : RouteStats {
  std::uint64_t gets = 0;
  std::uint64_t puts = 0;
};

/// Routing client: hashes keys to shards and sends each op through a
/// RoutedCaller.
class KvClient {
 public:
  KvClient(cluster::TcCluster& cluster, RpcNode& rpc, ShardMap map,
           KvConfig cfg = {});

  [[nodiscard]] sim::Task<Result<std::vector<std::uint8_t>>> get(
      std::string_view key, std::optional<Picoseconds> deadline = std::nullopt);
  /// Returns the version the acting primary assigned.
  [[nodiscard]] sim::Task<Result<std::uint64_t>> put(
      std::string_view key, std::span<const std::uint8_t> value,
      std::optional<Picoseconds> deadline = std::nullopt);

  [[nodiscard]] const KvClientStats& stats() const { return stats_; }
  /// The placement this client routes by (the membership agent's map when
  /// attached — see KvService::shard_map()).
  [[nodiscard]] const ShardMap& shard_map() const { return route_.shard_map(); }

  /// Attach a membership agent: routing follows committed epochs.
  void set_membership(const MembershipAgent* membership) {
    route_.set_membership(membership);
  }

 private:
  KvClientStats stats_;
  RoutedCaller route_;
};

}  // namespace tcc::tcsvc
