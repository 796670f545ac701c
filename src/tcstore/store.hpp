// tcstore: database-class operations layered on the tcsvc serving tier —
// atomic read-modify-write ops, per-key TTLs and ordered range scans over
// the sharded KV, plus the mailbox layer in mailbox.hpp.
//
// The layering contract: tcsvc keeps owning placement (ShardMap +
// membership epochs), replication transport (RPC channels over tcrel) and
// the per-shard version sequence; tcstore adds *operations* whose outcome
// depends on the state they find — which is what makes them interesting to
// replicate:
//
//  * a blind put can be re-sent forever (version gating makes every copy
//    converge), but an increment re-executed by a client retry is a double
//    apply. Every store op therefore carries a (client, seq) identity; the
//    acting primary keeps a per-shard table of executed ops and replays the
//    recorded response on a duplicate instead of re-executing. The table is
//    pruned by a cumulative per-client watermark (the client's lowest
//    outstanding seq, piggybacked on every op), so it holds O(inflight)
//    records per client, not O(history) — and it travels with shard
//    migrations via the membership aux stream, so a retry that lands on the
//    new owner after a cutover still replays.
//  * ops replicate to the shard partner as *logical ops* (the op, its
//    operands, and the version the primary assigned): the partner
//    re-executes incr/append against its own copy — tcrel's exactly-once
//    in-order delivery plus the primary's per-stripe serialization make the
//    result bit-identical — and version-gates the apply so coordinator
//    retries and tcrel replays stay idempotent. Migration dual-writes
//    instead carry the *resulting state*, because a stream target may not
//    hold the base value yet (it is behind the snapshot cursor); logical
//    re-execution there would diverge. docs/ARCHITECTURE.md "Store &
//    mailboxes" spells the argument out.
//  * TTLs are assigned by the acting primary as an *absolute* sim-clock
//    expiry that rides replication and migration verbatim; every copy
//    re-checks the same deadline under the same clock, so whether a copy
//    has physically erased an expired entry is unobservable. Reads expire
//    lazily, a periodic sweep collects keys nobody reads.
//  * the KV's per-shard std::map was already ordered; scans page through it
//    with the same bounded-frame cursor the migration stream uses, skipping
//    expired entries.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/mutex.hpp"
#include "tcsvc/kv.hpp"
#include "tcsvc/membership.hpp"

namespace tcc::tcstore {

/// Register the tcstore.* metric names with the global registry so the docs
/// catalogue test sees them even in runs that never execute a store op.
/// No-op without telemetry.
void register_tcstore_metrics();

/// RPC method ids of the store protocol (kv uses 1..3, membership 16..22).
inline constexpr std::uint16_t kStoreOp = 4;           ///< client -> acting primary
inline constexpr std::uint16_t kStoreReplicateOp = 5;  ///< primary -> partner/forwards
inline constexpr std::uint16_t kStoreScan = 6;         ///< client -> acting primary
inline constexpr std::uint16_t kMailboxSend = 7;       ///< client -> mailbox home

/// Atomic op kinds (wire values).
enum class StoreOp : std::uint8_t {
  kIncr = 1,    ///< add an i64 delta to a u64 counter (two's-complement wrap)
  kCas = 2,     ///< compare-and-swap on the entry version
  kAppend = 3,  ///< append a suffix, bounded by append_cap
  kSet = 4,     ///< plain write through the store path (carries a TTL)
};

struct StoreConfig {
  /// Default absolute-deadline budget of one client operation.
  Picoseconds op_deadline = Picoseconds::from_us(500.0);
  /// Budget of a single attempt within an operation (see KvConfig).
  Picoseconds attempt_deadline = Picoseconds::from_us(60.0);
  /// Modeled CPU service time of one RMW op (read + modify + write).
  Picoseconds op_compute = Picoseconds::from_ns(350.0);
  /// Backoff between client retry attempts.
  Picoseconds retry_backoff = Picoseconds::from_us(2.0);
  /// Period of the lazy-TTL backstop sweep (runs until RpcNode::stop()).
  Picoseconds sweep_period = Picoseconds::from_us(50.0);
  /// Largest value an append may grow to (kResourceExhausted past it).
  std::uint32_t append_cap = 4096;
  /// Key-level mutex stripes per shard: ops on the same stripe serialize
  /// (read-modify-write atomicity + ordered replication), different stripes
  /// of one shard proceed concurrently.
  int lock_stripes = 4;
  /// Payload budget per scan response frame.
  std::uint32_t scan_frame_bytes = 1024;
};

/// Store-op counters. Admission rejects, failover serves and degraded acks
/// are counted by the wrapped KvService (KvStats).
struct StoreStats {
  std::uint64_t incrs = 0;
  std::uint64_t cas_ops = 0;        ///< CAS executed (success or conflict)
  std::uint64_t cas_conflicts = 0;
  std::uint64_t appends = 0;
  std::uint64_t append_overflows = 0;
  std::uint64_t sets = 0;
  std::uint64_t scans = 0;          ///< scan frames served
  std::uint64_t dedup_hits = 0;     ///< duplicate ops answered by replay
  std::uint64_t dedup_pruned = 0;   ///< records dropped by watermark pruning
  std::uint64_t replicated_ops = 0; ///< op frames applied as partner/forward
  std::uint64_t swept = 0;          ///< entries erased by the periodic sweep
};

/// One node's store service: registers the kStoreOp/kStoreReplicateOp/
/// kStoreScan handlers over the same RpcNode as the KvService it wraps, and
/// implements ShardAuxStreamer so its idempotency records migrate with the
/// shards they guard (wire via MembershipAgent::attach_aux).
class StoreService : public tcsvc::ShardAuxStreamer {
 public:
  StoreService(cluster::TcCluster& cluster, tcsvc::RpcNode& rpc,
               tcsvc::KvService& kv, StoreConfig cfg = {});

  StoreService(const StoreService&) = delete;
  StoreService& operator=(const StoreService&) = delete;

  /// Register the handlers and start the periodic TTL sweep (the sweep task
  /// exits once the RpcNode is stopped, so engine.run() can drain).
  void start();

  [[nodiscard]] int chip() const { return rpc_.chip(); }
  [[nodiscard]] const StoreStats& stats() const { return stats_; }
  /// Total idempotency records held across shards — the boundedness oracle.
  [[nodiscard]] std::size_t dedup_records() const;

  // ---- ShardAuxStreamer (membership migration of idempotency records) ----
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> export_aux(
      int shard, std::uint32_t max_bytes) override;
  void apply_aux(int shard, std::span<const std::uint8_t> blob) override;
  void reset_aux(int shard) override;

 private:
  /// Outcome of one executed op, kept for duplicate replay. A record whose
  /// replication could not be pushed (a live copy missed it) keeps the
  /// pending frames and the dual-write targets captured when the op
  /// executed; the duplicate that triggers the replay re-sends them first,
  /// so "acked" still implies "on every live copy".
  struct OpRecord {
    std::uint32_t code = 0;  ///< 0 = ok, else ErrorCode + 1
    std::vector<std::uint8_t> resp;
    /// Pending logical replicate (partner) and state dual-write (forwards).
    tcsvc::KvService::Fanout pending;
  };

  [[nodiscard]] sim::Task<Result<std::vector<std::uint8_t>>> on_op(
      const tcsvc::RpcContext& ctx, std::span<const std::uint8_t> body);
  [[nodiscard]] sim::Task<Result<std::vector<std::uint8_t>>> on_replicate_op(
      const tcsvc::RpcContext& ctx, std::span<const std::uint8_t> body);
  [[nodiscard]] sim::Task<Result<std::vector<std::uint8_t>>> on_scan(
      const tcsvc::RpcContext& ctx, std::span<const std::uint8_t> body);

  [[nodiscard]] sim::Mutex& stripe_lock(int shard, std::string_view key);
  void prune_dedup(int shard, std::uint64_t client, std::uint64_t watermark);

  cluster::TcCluster& cluster_;
  tcsvc::RpcNode& rpc_;
  tcsvc::KvService& kv_;
  StoreConfig cfg_;
  /// (shard * lock_stripes + key stripe) -> mutex.
  std::vector<std::unique_ptr<sim::Mutex>> locks_;
  /// shard -> (client, seq) -> executed-op record.
  std::vector<std::map<std::pair<std::uint64_t, std::uint64_t>, OpRecord>> dedup_;
  StoreStats stats_;
};

struct StoreClientStats : tcsvc::RouteStats {
  std::uint64_t ops = 0;
};

/// One scanned entry.
struct ScanEntry {
  std::string key;
  std::uint64_t version = 0;
  std::vector<std::uint8_t> value;
};

/// Routing client for store ops: assigns each op a (client, seq) identity
/// once (reused across every retry, so the primary can dedup), tracks the
/// lowest outstanding seq as the pruning watermark, and routes/fails over
/// through the same tcsvc::RoutedCaller as KvClient.
class StoreClient {
 public:
  StoreClient(cluster::TcCluster& cluster, tcsvc::RpcNode& rpc,
              tcsvc::ShardMap map, StoreConfig cfg = {});

  struct IncrResult {
    std::uint64_t version = 0;
    std::uint64_t value = 0;  ///< counter value after the increment
  };
  /// Add `delta` (may be negative — decrement) to the u64 counter at `key`.
  /// A missing key starts at 0; a value that is not 8 bytes is a typed
  /// kInvalidArgument. Wraps in two's complement.
  [[nodiscard]] sim::Task<Result<IncrResult>> incr(
      std::string_view key, std::int64_t delta, Picoseconds ttl = Picoseconds{0},
      std::optional<Picoseconds> deadline = std::nullopt);

  struct CasResult {
    bool success = false;
    /// On success the newly assigned version; on conflict the current one
    /// (0 when the key is absent) — feed it to the next attempt.
    std::uint64_t version = 0;
  };
  /// Write `value` iff the entry's version is exactly `expected_version`
  /// (0 = create-if-absent). A conflict is an ok response with
  /// success=false, not an error.
  [[nodiscard]] sim::Task<Result<CasResult>> cas(
      std::string_view key, std::uint64_t expected_version,
      std::span<const std::uint8_t> value, Picoseconds ttl = Picoseconds{0},
      std::optional<Picoseconds> deadline = std::nullopt);

  struct AppendResult {
    std::uint64_t version = 0;
    std::uint32_t size = 0;  ///< value size after the append
  };
  /// Append `suffix` to the value at `key` (missing key starts empty).
  /// Growing past StoreConfig::append_cap is a typed kResourceExhausted and
  /// leaves the value unchanged.
  [[nodiscard]] sim::Task<Result<AppendResult>> append(
      std::string_view key, std::span<const std::uint8_t> suffix,
      Picoseconds ttl = Picoseconds{0},
      std::optional<Picoseconds> deadline = std::nullopt);

  /// Plain write through the store path — the way to give a key a TTL
  /// (ttl = 0 keeps an existing expiry / none for a new key).
  [[nodiscard]] sim::Task<Result<std::uint64_t>> set(
      std::string_view key, std::span<const std::uint8_t> value,
      Picoseconds ttl = Picoseconds{0},
      std::optional<Picoseconds> deadline = std::nullopt);

  /// Ordered scan of one shard: keys in (start_key, end_key) — start
  /// exclusive as a resume cursor (empty = from the start), end exclusive
  /// (empty = to the end) — paged in bounded frames until done.
  [[nodiscard]] sim::Task<Result<std::vector<ScanEntry>>> scan_shard(
      int shard, std::string_view start_key = {}, std::string_view end_key = {},
      std::optional<Picoseconds> deadline = std::nullopt);

  [[nodiscard]] const StoreClientStats& stats() const { return stats_; }
  [[nodiscard]] const tcsvc::ShardMap& shard_map() const {
    return route_.shard_map();
  }
  void set_membership(const tcsvc::MembershipAgent* membership) {
    route_.set_membership(membership);
  }

 private:
  [[nodiscard]] sim::Task<Result<std::vector<std::uint8_t>>> run_op(
      StoreOp op, std::string_view key, std::int64_t arg0,
      std::span<const std::uint8_t> value, Picoseconds ttl,
      std::optional<Picoseconds> deadline);

  StoreConfig cfg_;
  std::uint64_t next_seq_ = 1;
  std::set<std::uint64_t> outstanding_;  ///< seqs without a final outcome
  StoreClientStats stats_;
  tcsvc::RoutedCaller route_;
};

}  // namespace tcc::tcstore
