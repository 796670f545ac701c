#include "tcsvc/membership.hpp"

#include <algorithm>
#include <cstring>
#include <set>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "tcsvc/metrics_internal.hpp"

namespace tcc::tcsvc {

// ---------------------------------------------------------- wire codecs --
//
// All little-endian, riding the ordinary RPC payload (so tcrel exactly-once
// and the 24-byte RPC header apply unchanged):
//   join/leave:  u32 chip
//   prepare:     u64 pending_epoch, u16 nservers, u32 server[n],
//                u32 nmoves, { u32 shard, u32 source, u32 target }[m]
//   migrate:     u32 shard, u32 target
//   chunk:       u32 shard, u16 count,
//                { u16 klen, u64 version, i64 expires_at_ps, u32 vlen,
//                  key, value }[count]
//   aux:         u32 shard, blob (opaque to membership — ShardAuxStreamer's)
//   commit:      u64 epoch, u16 nservers, u32 server[n]

namespace {

/// Payload budget per kMemChunk frame (bounded stream: the source yields the
/// wire between chunks, so migration never monopolizes a ring).
constexpr std::uint32_t kChunkBytes = 2048;
/// Budget of one control frame (prepare/commit/chunk).
constexpr Picoseconds kControlDeadline = Picoseconds::from_us(200.0);
/// Budget of one full shard stream (kMemMigrate call).
constexpr Picoseconds kMigrateDeadline = Picoseconds::from_us(4000.0);
/// Budget of one whole rebalance (join/leave round-trip deadline).
constexpr Picoseconds kRebalanceDeadline = Picoseconds::from_us(20000.0);

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  const std::size_t at = out.size();
  out.resize(at + 2);
  std::memcpy(out.data() + at, &v, 2);
}
void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  const std::size_t at = out.size();
  out.resize(at + 4);
  std::memcpy(out.data() + at, &v, 4);
}
void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  const std::size_t at = out.size();
  out.resize(at + 8);
  std::memcpy(out.data() + at, &v, 8);
}

/// Bounds-checked little-endian reader over a received body.
struct Reader {
  std::span<const std::uint8_t> body;
  std::size_t at = 0;
  bool ok = true;

  template <typename T>
  T get() {
    T v{};
    if (at + sizeof(T) > body.size()) {
      ok = false;
      return v;
    }
    std::memcpy(&v, body.data() + at, sizeof(T));
    at += sizeof(T);
    return v;
  }
  std::string_view bytes(std::size_t n) {
    if (at + n > body.size()) {
      ok = false;
      return {};
    }
    auto v = std::string_view(reinterpret_cast<const char*>(body.data()) + at, n);
    at += n;
    return v;
  }
};

std::vector<std::uint8_t> encode_chip(int chip) {
  std::vector<std::uint8_t> out;
  put_u32(out, static_cast<std::uint32_t>(chip));
  return out;
}

std::vector<std::uint8_t> encode_prepare(std::uint64_t pending_epoch,
                                         const std::vector<int>& servers,
                                         const std::vector<ShardMove>& moves) {
  std::vector<std::uint8_t> out;
  put_u64(out, pending_epoch);
  put_u16(out, static_cast<std::uint16_t>(servers.size()));
  for (int s : servers) put_u32(out, static_cast<std::uint32_t>(s));
  put_u32(out, static_cast<std::uint32_t>(moves.size()));
  for (const ShardMove& m : moves) {
    put_u32(out, static_cast<std::uint32_t>(m.shard));
    put_u32(out, static_cast<std::uint32_t>(m.source));
    put_u32(out, static_cast<std::uint32_t>(m.target));
  }
  return out;
}

std::vector<std::uint8_t> encode_commit(std::uint64_t epoch,
                                        const std::vector<int>& servers) {
  std::vector<std::uint8_t> out;
  put_u64(out, epoch);
  put_u16(out, static_cast<std::uint16_t>(servers.size()));
  for (int s : servers) put_u32(out, static_cast<std::uint32_t>(s));
  return out;
}

std::vector<std::uint8_t> encode_migrate(int shard, int target) {
  std::vector<std::uint8_t> out;
  put_u32(out, static_cast<std::uint32_t>(shard));
  put_u32(out, static_cast<std::uint32_t>(target));
  return out;
}

Error malformed(const char* what) {
  return make_error(ErrorCode::kProtocolViolation,
                    strprintf("malformed membership frame: %s", what));
}

}  // namespace

// ------------------------------------------------------- placement_moves --

std::vector<ShardMove> placement_moves(const ShardMap& from, const ShardMap& to,
                                       const std::vector<int>& dead) {
  TCC_ASSERT(from.shards() == to.shards(),
             "placement_moves across different shard counts");
  const std::set<int> dead_set(dead.begin(), dead.end());
  std::vector<ShardMove> moves;
  for (int s = 0; s < to.shards(); ++s) {
    const int old_p = from.primary(s);
    const int old_r = from.replica(s);
    int source = -1;
    if (old_p >= 0 && dead_set.count(old_p) == 0) {
      source = old_p;
    } else if (old_r >= 0 && dead_set.count(old_r) == 0) {
      source = old_r;
    }
    for (const int member : {to.primary(s), to.replica(s)}) {
      if (member < 0 || member == old_p || member == old_r) continue;
      // No live copy left to stream from: nothing we can do for this shard
      // (a double fault ate both members); the new pair starts empty.
      if (source < 0) continue;
      moves.push_back(ShardMove{s, source, member});
    }
  }
  return moves;
}

// -------------------------------------------------------- MembershipAgent --

MembershipAgent::MembershipAgent(cluster::TcCluster& cluster, RpcNode& rpc,
                                 ShardMap initial)
    : cluster_(cluster), rpc_(rpc), map_(std::move(initial)) {}

void MembershipAgent::start() {
  rpc_.handle(kMemPrepare,
              [this](const RpcContext& ctx, std::span<const std::uint8_t> b) {
                return on_prepare(ctx, b);
              });
  rpc_.handle(kMemMigrate,
              [this](const RpcContext& ctx, std::span<const std::uint8_t> b) {
                return on_migrate(ctx, b);
              });
  rpc_.handle(kMemChunk,
              [this](const RpcContext& ctx, std::span<const std::uint8_t> b) {
                return on_chunk(ctx, b);
              });
  rpc_.handle(kMemCommit,
              [this](const RpcContext& ctx, std::span<const std::uint8_t> b) {
                return on_commit(ctx, b);
              });
  rpc_.handle(kMemAux,
              [this](const RpcContext& ctx, std::span<const std::uint8_t> b) {
                return on_aux(ctx, b);
              });
}

void MembershipAgent::attach_service(KvService* svc) {
  svc_ = svc;
  if (svc_ != nullptr) svc_->set_membership(this);
}

void MembershipAgent::attach_client(KvClient* client) {
  client_ = client;
  if (client_ != nullptr) client_->set_membership(this);
}

const std::vector<int>& MembershipAgent::forward_targets(int shard) const {
  static const std::vector<int> kNone;
  const auto it = forwards_.find(shard);
  return it == forwards_.end() ? kNone : it->second;
}

std::string MembershipAgent::placement_report() const {
  std::string out = strprintf("== placement (chip %d, epoch %llu, %d shards",
                              chip(), static_cast<unsigned long long>(epoch_),
                              map_.shards());
  out += ", servers";
  for (int s : map_.servers()) out += strprintf(" %d", s);
  out += ") ==\n";
  std::map<int, const ShardMove*> moving;
  for (const ShardMove& m : moves_) moving[m.shard] = &m;
  for (int s = 0; s < map_.shards(); ++s) {
    out += strprintf("  shard %2d: primary %d, replica %d", s, map_.primary(s),
                     map_.replica(s));
    if (const auto it = moving.find(s); it != moving.end()) {
      out += strprintf("  MIGRATING %d -> %d (pending epoch %llu)",
                       it->second->source, it->second->target,
                       static_cast<unsigned long long>(pending_epoch_));
    }
    out += "\n";
  }
  return out;
}

sim::Task<Result<std::vector<std::uint8_t>>> MembershipAgent::on_prepare(
    const RpcContext&, std::span<const std::uint8_t> body) {
  Reader r{body};
  const std::uint64_t pending = r.get<std::uint64_t>();
  const int nservers = r.get<std::uint16_t>();
  for (int i = 0; i < nservers; ++i) (void)r.get<std::uint32_t>();
  const auto nmoves = r.get<std::uint32_t>();
  std::vector<ShardMove> moves;
  moves.reserve(nmoves);
  for (std::uint32_t i = 0; i < nmoves && r.ok; ++i) {
    ShardMove m;
    m.shard = static_cast<int>(r.get<std::uint32_t>());
    m.source = static_cast<int>(r.get<std::uint32_t>());
    m.target = static_cast<int>(r.get<std::uint32_t>());
    moves.push_back(m);
  }
  if (!r.ok) co_return malformed("prepare");

  pending_epoch_ = pending;
  moves_ = std::move(moves);
  forwards_.clear();
  const int self = chip();
  for (const ShardMove& m : moves_) {
    if (m.source == self) forwards_[m.shard].push_back(m.target);
    if (m.target == self && svc_ != nullptr) {
      // The coordinator only streams to members without a live copy under
      // the authoritative old map, so any local state is stale (a rejoin's
      // pre-death leftovers) and must not win the version gate.
      svc_->reset_shard(m.shard);
      if (aux_ != nullptr) aux_->reset_aux(m.shard);
      ++stats_.shards_in;
    }
  }
  ++stats_.prepares;
  co_return std::vector<std::uint8_t>{};
}

sim::Task<Result<std::vector<std::uint8_t>>> MembershipAgent::on_migrate(
    const RpcContext& ctx, std::span<const std::uint8_t> body) {
  Reader r{body};
  const int shard = static_cast<int>(r.get<std::uint32_t>());
  const int target = static_cast<int>(r.get<std::uint32_t>());
  if (!r.ok) co_return malformed("migrate");
  if (svc_ == nullptr) {
    co_return make_error(ErrorCode::kFailedPrecondition,
                         "migrate on a chip without a KV service");
  }

  // Stream the shard snapshot in key order, one bounded chunk per frame.
  // Writes that land behind the cursor while we stream are covered by the
  // dual-write armed at prepare; writes ahead of it are simply re-read.
  std::string cursor;
  std::uint64_t sent = 0;
  for (;;) {
    const auto entries = svc_->export_shard(shard, cursor, kChunkBytes);
    if (entries.empty()) break;
    std::vector<std::uint8_t> chunk;
    put_u32(chunk, static_cast<std::uint32_t>(shard));
    put_u16(chunk, static_cast<std::uint16_t>(entries.size()));
    for (const auto& e : entries) {
      put_u16(chunk, static_cast<std::uint16_t>(e.key.size()));
      put_u64(chunk, e.version);
      put_u64(chunk, static_cast<std::uint64_t>(e.expires_at_ps));
      put_u32(chunk, static_cast<std::uint32_t>(e.value.size()));
      chunk.insert(chunk.end(), e.key.begin(), e.key.end());
      chunk.insert(chunk.end(), e.value.begin(), e.value.end());
    }
    CallOptions opts;
    opts.channel = kMembershipChannel;
    opts.deadline = std::min(ctx.deadline,
                             cluster_.engine().now() + kControlDeadline);
    auto sent_r = co_await rpc_.call(target, kMemChunk, chunk, opts);
    if (!sent_r.ok()) co_return sent_r.error();
    cursor = entries.back().key;
    sent += entries.size();
    ++stats_.chunks_out;
    TCC_METRIC(detail::metrics().rebalance_chunks.inc());
  }
  // Aux state (tcstore dedup records) follows the entry snapshot: every
  // record present when the stream started travels; records created after
  // PREPARE are placed on the target by the store's own dual-write path.
  if (aux_ != nullptr) {
    for (const auto& blob : aux_->export_aux(shard, kChunkBytes)) {
      std::vector<std::uint8_t> frame;
      put_u32(frame, static_cast<std::uint32_t>(shard));
      frame.insert(frame.end(), blob.begin(), blob.end());
      CallOptions opts;
      opts.channel = kMembershipChannel;
      opts.deadline = std::min(ctx.deadline,
                               cluster_.engine().now() + kControlDeadline);
      auto aux_r = co_await rpc_.call(target, kMemAux, frame, opts);
      if (!aux_r.ok()) co_return aux_r.error();
      ++stats_.aux_out;
    }
  }
  stats_.entries_out += sent;
  ++stats_.shards_out;
  TCC_METRIC(detail::metrics().rebalance_shards_moved.inc());
  TCC_METRIC(detail::metrics().rebalance_entries_streamed.inc(sent));

  std::vector<std::uint8_t> reply;
  put_u64(reply, sent);
  co_return reply;
}

sim::Task<Result<std::vector<std::uint8_t>>> MembershipAgent::on_chunk(
    const RpcContext&, std::span<const std::uint8_t> body) {
  Reader r{body};
  const int shard = static_cast<int>(r.get<std::uint32_t>());
  const int count = r.get<std::uint16_t>();
  if (svc_ == nullptr) {
    co_return make_error(ErrorCode::kFailedPrecondition,
                         "chunk on a chip without a KV service");
  }
  for (int i = 0; i < count && r.ok; ++i) {
    const auto klen = r.get<std::uint16_t>();
    const auto version = r.get<std::uint64_t>();
    const auto expires_at_ps = static_cast<std::int64_t>(r.get<std::uint64_t>());
    const auto vlen = r.get<std::uint32_t>();
    const std::string_view key = r.bytes(klen);
    const std::string_view value = r.bytes(vlen);
    if (!r.ok) break;
    svc_->apply_entry(shard, key, version,
                      std::span<const std::uint8_t>(
                          reinterpret_cast<const std::uint8_t*>(value.data()),
                          value.size()),
                      expires_at_ps);
    ++stats_.entries_in;
  }
  if (!r.ok) co_return malformed("chunk");
  co_return std::vector<std::uint8_t>{};
}

sim::Task<Result<std::vector<std::uint8_t>>> MembershipAgent::on_aux(
    const RpcContext&, std::span<const std::uint8_t> body) {
  Reader r{body};
  const int shard = static_cast<int>(r.get<std::uint32_t>());
  if (!r.ok) co_return malformed("aux");
  if (aux_ != nullptr) {
    aux_->apply_aux(shard, body.subspan(4));
    ++stats_.aux_in;
  }
  co_return std::vector<std::uint8_t>{};
}

sim::Task<Result<std::vector<std::uint8_t>>> MembershipAgent::on_commit(
    const RpcContext&, std::span<const std::uint8_t> body) {
  Reader r{body};
  const std::uint64_t epoch = r.get<std::uint64_t>();
  const int nservers = r.get<std::uint16_t>();
  std::vector<int> servers;
  servers.reserve(static_cast<std::size_t>(nservers));
  for (int i = 0; i < nservers && r.ok; ++i) {
    servers.push_back(static_cast<int>(r.get<std::uint32_t>()));
  }
  if (!r.ok || servers.empty()) co_return malformed("commit");

  // Duplicate delivery (tcrel replay, coordinator retry) is idempotent: the
  // same epoch + servers rebuild the same map.
  epoch_ = epoch;
  pending_epoch_ = epoch;
  map_ = ShardMap::from_plan(cluster_.plan(), std::move(servers), map_.shards());
  moves_.clear();
  forwards_.clear();
  ++stats_.commits;
  TCC_METRIC(detail::metrics().membership_epoch.set(static_cast<double>(epoch)));
  if (svc_ != nullptr) {
    svc_->drop_unowned();
    svc_->clear_degraded_if_restored();
  }
  if (aux_ != nullptr) {
    const int self = chip();
    for (int s = 0; s < map_.shards(); ++s) {
      if (map_.primary(s) != self && map_.replica(s) != self) aux_->reset_aux(s);
    }
  }
  TCC_INFO("tcsvc", "chip %d: membership epoch %llu committed", chip(),
           static_cast<unsigned long long>(epoch));
  co_return std::vector<std::uint8_t>{};
}

sim::Task<Status> MembershipAgent::request_join(int coordinator) {
  CallOptions opts;
  opts.channel = kMembershipChannel;
  opts.deadline = cluster_.engine().now() + kRebalanceDeadline;
  auto r = co_await rpc_.call(coordinator, kMemJoin, encode_chip(chip()), opts);
  co_return r.ok() ? Status{} : r.error();
}

sim::Task<Status> MembershipAgent::request_leave(int coordinator) {
  CallOptions opts;
  opts.channel = kMembershipChannel;
  opts.deadline = cluster_.engine().now() + kRebalanceDeadline;
  auto r = co_await rpc_.call(coordinator, kMemLeave, encode_chip(chip()), opts);
  co_return r.ok() ? Status{} : r.error();
}

// -------------------------------------------------- MembershipCoordinator --

MembershipCoordinator::MembershipCoordinator(cluster::TcCluster& cluster,
                                             MembershipAgent& self,
                                             std::vector<int> participants,
                                             MembershipConfig cfg)
    : cluster_(cluster),
      self_(self),
      cfg_(cfg),
      participants_(std::move(participants)),
      rebalance_mutex_(cluster.engine()) {
  std::sort(participants_.begin(), participants_.end());
  participants_.erase(std::unique(participants_.begin(), participants_.end()),
                      participants_.end());
}

MembershipCoordinator::~MembershipCoordinator() {
  if (diag_section_id_ >= 0) cluster_.remove_diag_section(diag_section_id_);
}

void MembershipCoordinator::start() {
  RpcNode& rpc = self_.rpc_;
  rpc.handle(kMemJoin,
             [this](const RpcContext&, std::span<const std::uint8_t> body)
                 -> sim::Task<Result<std::vector<std::uint8_t>>> {
               Reader r{body};
               const int who = static_cast<int>(r.get<std::uint32_t>());
               if (!r.ok) co_return malformed("join");
               if (Status s = co_await admit(who); !s.ok()) co_return s.error();
               co_return std::vector<std::uint8_t>{};
             });
  rpc.handle(kMemLeave,
             [this](const RpcContext&, std::span<const std::uint8_t> body)
                 -> sim::Task<Result<std::vector<std::uint8_t>>> {
               Reader r{body};
               const int who = static_cast<int>(r.get<std::uint32_t>());
               if (!r.ok) co_return malformed("leave");
               if (Status s = co_await drain(who); !s.ok()) co_return s.error();
               co_return std::vector<std::uint8_t>{};
             });
  cluster_.driver(chip()).set_verdict_callback(
      [this](int peer, bool alive) { on_verdict(peer, alive); });
  diag_section_id_ =
      cluster_.add_diag_section([this] { return self_.placement_report(); });
}

void MembershipCoordinator::on_verdict(int peer, bool alive) {
  if (alive || !cfg_.auto_heal) return;
  const auto& servers = self_.map().servers();
  if (std::find(servers.begin(), servers.end(), peer) == servers.end()) return;
  TCC_WARN("tcsvc", "coordinator %d: server %d judged dead — auto-evicting",
           chip(), peer);
  cluster_.engine().spawn_fn([this, peer]() -> sim::Task<void> {
    Status s = co_await evict(peer);
    if (!s.ok()) {
      TCC_WARN("tcsvc", "coordinator %d: eviction of %d failed: %s", chip(),
               peer, s.error().to_string().c_str());
    }
  });
}

sim::Task<Status> MembershipCoordinator::admit(int who) {
  auto guard = co_await rebalance_mutex_.scoped();
  std::vector<int> servers = self_.map().servers();
  if (std::find(servers.begin(), servers.end(), who) != servers.end()) {
    co_return Status{};  // already serving
  }
  if (std::find(participants_.begin(), participants_.end(), who) ==
      participants_.end()) {
    participants_.push_back(who);
    std::sort(participants_.begin(), participants_.end());
  }
  known_dead_.erase(std::remove(known_dead_.begin(), known_dead_.end(), who),
                    known_dead_.end());
  servers.push_back(who);
  Status s = co_await rebalance_to(std::move(servers), known_dead_, -1);
  if (s.ok()) {
    ++stats_.joins;
    TCC_METRIC(detail::metrics().membership_joins.inc());
  }
  co_return s;
}

sim::Task<Status> MembershipCoordinator::drain(int who) {
  auto guard = co_await rebalance_mutex_.scoped();
  std::vector<int> servers = self_.map().servers();
  const auto it = std::find(servers.begin(), servers.end(), who);
  if (it == servers.end()) co_return Status{};  // not serving
  if (servers.size() == 1) {
    co_return make_error(ErrorCode::kFailedPrecondition,
                         "cannot drain the last server");
  }
  servers.erase(it);
  Status s = co_await rebalance_to(std::move(servers), known_dead_, who);
  if (s.ok()) {
    ++stats_.leaves;
    TCC_METRIC(detail::metrics().membership_leaves.inc());
  }
  co_return s;
}

sim::Task<Status> MembershipCoordinator::evict(int who) {
  auto guard = co_await rebalance_mutex_.scoped();
  std::vector<int> servers = self_.map().servers();
  const auto it = std::find(servers.begin(), servers.end(), who);
  if (it == servers.end()) co_return Status{};  // already out (duplicate verdict)
  if (servers.size() == 1) {
    co_return make_error(ErrorCode::kFailedPrecondition,
                         "cannot evict the last server");
  }
  servers.erase(it);
  if (std::find(known_dead_.begin(), known_dead_.end(), who) ==
      known_dead_.end()) {
    known_dead_.push_back(who);
  }
  Status s = co_await rebalance_to(std::move(servers), known_dead_, -1);
  if (s.ok()) {
    ++stats_.evictions;
    TCC_METRIC(detail::metrics().membership_evictions.inc());
  }
  co_return s;
}

sim::Task<Status> MembershipCoordinator::rebalance_to(
    std::vector<int> new_servers, std::vector<int> dead, int leaving) {
  TCC_ASSERT(rebalance_mutex_.held(), "rebalance_to needs the mutex held");
  sim::Engine& engine = cluster_.engine();
  const std::set<int> dead_set(dead.begin(), dead.end());
  std::sort(new_servers.begin(), new_servers.end());

  const ShardMap& old_map = self_.map();
  const ShardMap new_map =
      ShardMap::from_plan(cluster_.plan(), new_servers, old_map.shards());
  const std::vector<ShardMove> moves = placement_moves(old_map, new_map, dead);
  const std::uint64_t pending = self_.epoch() + 1;

  // Broadcast targets: every live participant. The coordinator itself is
  // included — peer == self dispatches locally through the same handler.
  std::vector<int> targets;
  for (int p : participants_) {
    if (dead_set.count(p) == 0) targets.push_back(p);
  }

  auto broadcast = [&](std::uint16_t method, const std::vector<std::uint8_t>& body,
                       const char* what) -> sim::Task<Status> {
    for (int t : targets) {
      CallOptions opts;
      opts.channel = kMembershipChannel;
      opts.deadline = engine.now() + kControlDeadline;
      auto r = co_await self_.rpc_.call(t, method, body, opts);
      if (!r.ok() && t != leaving) {
        co_return make_error(r.error().code,
                             strprintf("%s to chip %d failed: %s", what, t,
                                       r.error().to_string().c_str()));
      }
    }
    co_return Status{};
  };

  // PREPARE: arm dual-writes at sources, reset stale copies at targets.
  if (Status s = co_await broadcast(kMemPrepare,
                                    encode_prepare(pending, new_servers, moves),
                                    "prepare");
      !s.ok()) {
    ++stats_.failed;
    co_return s;
  }

  // MIGRATE: drive each stream source; it serves traffic while streaming.
  for (const ShardMove& m : moves) {
    CallOptions opts;
    opts.channel = kMembershipChannel;
    opts.deadline = engine.now() + kMigrateDeadline;
    auto r = co_await self_.rpc_.call(m.source, kMemMigrate,
                                      encode_migrate(m.shard, m.target), opts);
    if (!r.ok()) {
      ++stats_.failed;
      co_return make_error(
          r.error().code,
          strprintf("migrate shard %d (%d -> %d) failed: %s", m.shard, m.source,
                    m.target, r.error().to_string().c_str()));
    }
  }

  // COMMIT: cut placement over. Every streamed shard is complete (snapshot +
  // dual-writes), so the new owners serve from the first post-commit request.
  if (Status s = co_await broadcast(kMemCommit,
                                    encode_commit(pending, new_servers),
                                    "commit");
      !s.ok()) {
    ++stats_.failed;
    co_return s;
  }
  ++stats_.rebalances;
  TCC_METRIC(detail::metrics().membership_rebalances.inc());
  TCC_INFO("tcsvc",
           "coordinator %d: epoch %llu committed (%zu servers, %zu moves)",
           chip(), static_cast<unsigned long long>(pending), new_servers.size(),
           moves.size());
  co_return Status{};
}

}  // namespace tcc::tcsvc
