// tcsvc membership: elastic cluster membership and online resharding for the
// serving tier — the control plane that turns the booted fabric's fixed
// server set into an operable cluster (join, planned drain, dead-node
// eviction with replica re-seeding), all while the open-loop workload keeps
// flowing.
//
// Structure: one MembershipAgent per participating chip (servers AND pure
// clients — clients need the epoch/map feed to route), plus one
// MembershipCoordinator co-located with one agent. Every membership change is
// a coordinator-driven rebalance with the same three-step shape:
//
//   PREPARE   broadcast the pending epoch, server set and move list. Stream
//             sources arm dual-write (every subsequently acked write is
//             forwarded synchronously to the shard's future owners); stream
//             targets reset any stale copy of an incoming shard (a rejoining
//             node may hold pre-death versions that would otherwise win the
//             version gate against reassigned ones).
//   MIGRATE   per move, the source walks the shard in key order and streams
//             it to the target in bounded tcrel-sized chunks (kMemChunk);
//             the target applies version-gated, so entries that also arrived
//             via dual-write dedupe. The source keeps serving throughout.
//   COMMIT    broadcast the new epoch + server set. Agents rebuild their
//             rendezvous map, drop shards they no longer own, disarm
//             dual-write, and close the degraded-write window if every owned
//             shard has a live partner again.
//
// Loss-freedom argument (the chaos soak asserts it end to end): an
// acknowledged write either (a) predates PREPARE — then it is behind the
// stream cursor and the snapshot carries it, or (b) follows PREPARE — then
// the synchronous dual-write placed it on every future owner before the ack.
// Version gating makes the overlap idempotent, and a client whose map is one
// epoch stale gets kFailedPrecondition from the old owner and re-resolves
// placement on the next retry attempt.
//
// The coordinator serializes rebalances behind a sim::Mutex, hooks the
// TcDriver keepalive verdict edge to auto-evict dead servers (promoting the
// surviving replica and re-seeding onto a domain-aware replacement via the
// ordinary move machinery), and registers the placement table as a diag
// section so health_report shows a rebalance in flight.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/mutex.hpp"
#include "tcsvc/kv.hpp"

namespace tcc::tcsvc {

/// RPC method ids of the membership protocol (4..15 reserved for kv/load).
inline constexpr std::uint16_t kMemJoin = 16;     ///< chip -> coordinator
inline constexpr std::uint16_t kMemLeave = 17;    ///< chip -> coordinator
inline constexpr std::uint16_t kMemPrepare = 18;  ///< coordinator -> agents
inline constexpr std::uint16_t kMemMigrate = 19;  ///< coordinator -> stream source
inline constexpr std::uint16_t kMemChunk = 20;    ///< stream source -> target
inline constexpr std::uint16_t kMemCommit = 21;   ///< coordinator -> agents
inline constexpr std::uint16_t kMemAux = 22;      ///< stream source -> target

struct MembershipConfig {
  /// Evict a server automatically when the coordinator's keepalive declares
  /// it dead (replica promotion + re-seed onto a replacement).
  bool auto_heal = true;
};

/// One shard stream of a rebalance: `source` holds a live copy under the old
/// map, `target` owns one under the new map but holds none yet.
struct ShardMove {
  int shard = -1;
  int source = -1;
  int target = -1;
};

/// Compute the streams that turn placement `from` into `to`: one move per
/// (shard, new-pair member without a live copy), sourced from the old pair
/// (primary preferred, replica fallback, `dead` chips skipped). Members that
/// merely swap roles within a pair move nothing — rendezvous hashing keeps
/// that the common case.
[[nodiscard]] std::vector<ShardMove> placement_moves(
    const ShardMap& from, const ShardMap& to, const std::vector<int>& dead = {});

struct MembershipStats {
  std::uint64_t prepares = 0;      ///< kMemPrepare frames applied
  std::uint64_t commits = 0;       ///< kMemCommit frames applied (epoch advances)
  std::uint64_t shards_out = 0;    ///< migrations streamed as source
  std::uint64_t shards_in = 0;     ///< migrations received as target
  std::uint64_t entries_out = 0;
  std::uint64_t entries_in = 0;
  std::uint64_t chunks_out = 0;
  std::uint64_t dual_writes = 0;   ///< acked writes forwarded while source
  std::uint64_t aux_out = 0;       ///< kMemAux blobs streamed as source
  std::uint64_t aux_in = 0;        ///< kMemAux blobs applied as target
};

/// Per-shard auxiliary state that must travel with a shard migration but
/// lives outside the KV entry map — e.g. tcstore's idempotency (dedup)
/// records, which the new owner needs so a client retry spanning the cutover
/// still replays instead of double-applying. Implemented by the layered
/// store service and attached via MembershipAgent::attach_aux().
class ShardAuxStreamer {
 public:
  virtual ~ShardAuxStreamer() = default;
  /// Serialize `shard`'s aux state as opaque blobs, each at most `max_bytes`
  /// (a blob rides one kMemAux frame; the codec inside is the streamer's).
  [[nodiscard]] virtual std::vector<std::vector<std::uint8_t>> export_aux(
      int shard, std::uint32_t max_bytes) = 0;
  /// Apply one streamed blob on the migration target (idempotent).
  virtual void apply_aux(int shard, std::span<const std::uint8_t> blob) = 0;
  /// Drop `shard`'s aux state (incoming-stream reset, post-commit disown).
  virtual void reset_aux(int shard) = 0;
};

/// Per-chip membership state machine: holds the committed epoch + shard map,
/// answers the coordinator's prepare/migrate/commit, and feeds placement to
/// the co-located KvService/KvClient.
class MembershipAgent {
 public:
  /// `initial` is the epoch-0 placement every participant boots with (same
  /// ShardMap::from_plan call everywhere — deterministic).
  MembershipAgent(cluster::TcCluster& cluster, RpcNode& rpc, ShardMap initial);

  MembershipAgent(const MembershipAgent&) = delete;
  MembershipAgent& operator=(const MembershipAgent&) = delete;

  /// Register the kMemPrepare/kMemMigrate/kMemChunk/kMemCommit handlers.
  void start();

  /// Bind the co-located service/client: they start routing by this agent's
  /// map, and the service dual-writes through forward_targets().
  void attach_service(KvService* svc);
  void attach_client(KvClient* client);
  /// Attach a per-shard aux-state streamer (tcstore dedup records): its blobs
  /// ride the migration stream after the entry chunks, and it is reset on the
  /// same edges the KV copy is (incoming prepare, post-commit disown).
  void attach_aux(ShardAuxStreamer* aux) { aux_ = aux; }

  [[nodiscard]] int chip() const { return rpc_.chip(); }
  [[nodiscard]] const ShardMap& map() const { return map_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  /// True between an applied prepare and its commit.
  [[nodiscard]] bool rebalancing() const { return pending_epoch_ > epoch_; }
  [[nodiscard]] const MembershipStats& stats() const { return stats_; }

  /// Migration targets the service must forward acked writes of `shard` to
  /// (empty outside a rebalance or when this node is not its source).
  [[nodiscard]] const std::vector<int>& forward_targets(int shard) const;
  /// Accounting hook for the service's dual-write path.
  void note_dual_write() { ++stats_.dual_writes; }

  /// Human-readable placement table (shard -> primary/replica, migration
  /// state, epoch) — the diag health_report section.
  [[nodiscard]] std::string placement_report() const;

  /// Ask `coordinator` to admit this chip into the serving set; resolves
  /// once the join rebalance committed (shards streamed in, epoch bumped).
  [[nodiscard]] sim::Task<Status> request_join(int coordinator);
  /// Planned drain: migrate every shard this chip owns elsewhere, then leave
  /// the serving set.
  [[nodiscard]] sim::Task<Status> request_leave(int coordinator);

 private:
  friend class MembershipCoordinator;

  [[nodiscard]] sim::Task<Result<std::vector<std::uint8_t>>> on_prepare(
      const RpcContext& ctx, std::span<const std::uint8_t> body);
  [[nodiscard]] sim::Task<Result<std::vector<std::uint8_t>>> on_migrate(
      const RpcContext& ctx, std::span<const std::uint8_t> body);
  [[nodiscard]] sim::Task<Result<std::vector<std::uint8_t>>> on_chunk(
      const RpcContext& ctx, std::span<const std::uint8_t> body);
  [[nodiscard]] sim::Task<Result<std::vector<std::uint8_t>>> on_commit(
      const RpcContext& ctx, std::span<const std::uint8_t> body);
  [[nodiscard]] sim::Task<Result<std::vector<std::uint8_t>>> on_aux(
      const RpcContext& ctx, std::span<const std::uint8_t> body);

  cluster::TcCluster& cluster_;
  RpcNode& rpc_;
  ShardMap map_;
  std::uint64_t epoch_ = 0;
  std::uint64_t pending_epoch_ = 0;
  std::vector<ShardMove> moves_;        ///< the in-flight rebalance's moves
  std::map<int, std::vector<int>> forwards_;  ///< shard -> dual-write targets
  KvService* svc_ = nullptr;
  KvClient* client_ = nullptr;
  ShardAuxStreamer* aux_ = nullptr;
  MembershipStats stats_;
};

struct CoordinatorStats {
  std::uint64_t rebalances = 0;  ///< committed epoch changes
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t evictions = 0;   ///< dead-verdict auto-heals
  std::uint64_t failed = 0;      ///< rebalances abandoned mid-flight
};

/// The (single, fixed) coordinator: owns the participant roster, serializes
/// rebalances, serves kMemJoin/kMemLeave, and auto-evicts on its driver's
/// dead-peer verdicts. Coordinator failure is out of scope — it is the
/// membership tier's seed, like the rank-0 of the MPI layer.
class MembershipCoordinator {
 public:
  /// `self` is the agent on this coordinator's chip; `participants` is every
  /// chip speaking the protocol (serving or not). Servers are whatever
  /// self.map().servers() says.
  MembershipCoordinator(cluster::TcCluster& cluster, MembershipAgent& self,
                        std::vector<int> participants, MembershipConfig cfg = {});
  ~MembershipCoordinator();

  MembershipCoordinator(const MembershipCoordinator&) = delete;
  MembershipCoordinator& operator=(const MembershipCoordinator&) = delete;

  /// Register the join/leave handlers, hook the keepalive verdict edge
  /// (auto_heal) and publish the placement diag section.
  void start();

  [[nodiscard]] int chip() const { return self_.chip(); }
  [[nodiscard]] const CoordinatorStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<int>& participants() const { return participants_; }

  /// Admit `chip` into the serving set (idempotent when already serving).
  [[nodiscard]] sim::Task<Status> admit(int chip);
  /// Drain `chip`'s shards away, then drop it from the serving set.
  [[nodiscard]] sim::Task<Status> drain(int chip);
  /// Remove a dead `chip` without streaming from it: surviving replicas are
  /// promoted by the new map and fresh replicas re-seed from them.
  [[nodiscard]] sim::Task<Status> evict(int chip);

 private:
  /// The one rebalance primitive everything above reduces to. `dead` chips
  /// are skipped as stream sources and excluded from broadcasts; `leaving`
  /// (or -1) marks a chip whose commit is best-effort.
  [[nodiscard]] sim::Task<Status> rebalance_to(std::vector<int> new_servers,
                                               std::vector<int> dead, int leaving);
  void on_verdict(int peer, bool alive);

  cluster::TcCluster& cluster_;
  MembershipAgent& self_;
  MembershipConfig cfg_;
  std::vector<int> participants_;
  std::vector<int> known_dead_;  ///< evicted chips, excluded until readmitted
  sim::Mutex rebalance_mutex_;
  CoordinatorStats stats_;
  int diag_section_id_ = -1;
};

}  // namespace tcc::tcsvc
