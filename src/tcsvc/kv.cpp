#include "tcsvc/kv.hpp"

#include <algorithm>
#include <cstring>

#include "common/strings.hpp"
#include "tcsvc/membership.hpp"
#include "tcsvc/metrics_internal.hpp"

namespace tcc::tcsvc {

// -------------------------------------------------------------- ShardMap --

namespace {
/// 64-bit finalizer (MurmurHash3 fmix64): decorrelates structured inputs.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Rendezvous weight of (shard, server) under `seed`.
std::uint64_t hrw_score(std::uint64_t seed, int shard, int server) {
  return mix64(seed ^ mix64(static_cast<std::uint64_t>(shard) * 0x9e3779b97f4a7c15ull + 1) ^
               mix64(static_cast<std::uint64_t>(server) * 0xbf58476d1ce4e5b9ull + 2));
}
}  // namespace

ShardMap::ShardMap(std::vector<int> servers, int shards, std::uint64_t seed,
                   std::map<int, int> fault_domains)
    : servers_(std::move(servers)), seed_(seed), domains_(std::move(fault_domains)) {
  TCC_ASSERT(!servers_.empty(), "ShardMap needs at least one server");
  TCC_ASSERT(shards > 0, "ShardMap needs at least one shard");
  std::sort(servers_.begin(), servers_.end());
  primary_.resize(static_cast<std::size_t>(shards));
  replica_.resize(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    int best = -1, second = -1;
    std::uint64_t best_score = 0, second_score = 0;
    for (int server : servers_) {
      const std::uint64_t score = hrw_score(seed_, s, server);
      // Ties cannot deadlock placement: lower chip id wins deterministically.
      if (best < 0 || score > best_score) {
        second = best;
        second_score = best_score;
        best = server;
        best_score = score;
      } else if (second < 0 || score > second_score) {
        second = server;
        second_score = score;
      }
    }
    // Domain-aware replica: prefer the best-scored server outside the
    // primary's fault domain, so a domain loss (a torus plane cut) never
    // takes both copies. Falls back to the overall runner-up when every
    // other server shares the primary's domain.
    if (!domains_.empty() && second >= 0 && domain_of(second) == domain_of(best)) {
      int alt = -1;
      std::uint64_t alt_score = 0;
      for (int server : servers_) {
        if (server == best || domain_of(server) == domain_of(best)) continue;
        const std::uint64_t score = hrw_score(seed_, s, server);
        if (alt < 0 || score > alt_score) {
          alt = server;
          alt_score = score;
        }
      }
      if (alt >= 0) second = alt;
    }
    primary_[static_cast<std::size_t>(s)] = best;
    replica_[static_cast<std::size_t>(s)] = second;
  }
}

ShardMap ShardMap::from_plan(const topology::ClusterPlan& plan,
                             std::vector<int> servers, int shards) {
  std::map<int, int> domains;
  for (int chip : servers) domains[chip] = plan.fault_domain_of(chip);
  return ShardMap(std::move(servers), shards, plan.config().seed, std::move(domains));
}

int ShardMap::shard_of(std::string_view key) const {
  return static_cast<int>(fnv1a(key) % static_cast<std::uint64_t>(shards()));
}

int ShardMap::primary(int shard) const {
  return primary_.at(static_cast<std::size_t>(shard));
}

int ShardMap::replica(int shard) const {
  return replica_.at(static_cast<std::size_t>(shard));
}

int ShardMap::domain_of(int chip) const {
  const auto it = domains_.find(chip);
  return it == domains_.end() ? -1 : it->second;
}

int ShardMap::partner_of(int shard, int chip) const {
  const int p = primary(shard);
  const int r = replica(shard);
  if (chip == p) return r;
  if (chip == r) return p;
  return -1;
}

std::string ShardMap::describe() const {
  std::string out;
  for (int s = 0; s < shards(); ++s) {
    out += strprintf("shard %2d: primary chip %d, replica chip %d\n", s,
                     primary(s), replica(s));
  }
  return out;
}

// ------------------------------------------------------------ wire codec --

namespace {
/// kKvPut body: u16 key length, key bytes, value bytes.
std::vector<std::uint8_t> encode_put(std::string_view key,
                                     std::span<const std::uint8_t> value) {
  std::vector<std::uint8_t> body(2 + key.size() + value.size());
  const auto klen = static_cast<std::uint16_t>(key.size());
  std::memcpy(body.data(), &klen, 2);
  std::memcpy(body.data() + 2, key.data(), key.size());
  std::copy(value.begin(), value.end(), body.begin() + 2 + key.size());
  return body;
}

/// kKvReplicate body: u16 key length, u64 version, i64 expires_at_ps,
/// key bytes, value bytes.
std::vector<std::uint8_t> encode_replicate(std::string_view key,
                                           std::uint64_t version,
                                           std::span<const std::uint8_t> value,
                                           std::int64_t expires_at_ps = 0) {
  std::vector<std::uint8_t> body(18 + key.size() + value.size());
  const auto klen = static_cast<std::uint16_t>(key.size());
  std::memcpy(body.data(), &klen, 2);
  std::memcpy(body.data() + 2, &version, 8);
  std::memcpy(body.data() + 10, &expires_at_ps, 8);
  std::memcpy(body.data() + 18, key.data(), key.size());
  std::copy(value.begin(), value.end(), body.begin() + 18 + key.size());
  return body;
}

bool decode_put(std::span<const std::uint8_t> body, std::string_view& key,
                std::span<const std::uint8_t>& value) {
  if (body.size() < 2) return false;
  std::uint16_t klen;
  std::memcpy(&klen, body.data(), 2);
  if (body.size() < 2u + klen) return false;
  key = std::string_view(reinterpret_cast<const char*>(body.data()) + 2, klen);
  value = body.subspan(2u + klen);
  return true;
}

bool decode_replicate(std::span<const std::uint8_t> body, std::string_view& key,
                      std::uint64_t& version, std::int64_t& expires_at_ps,
                      std::span<const std::uint8_t>& value) {
  if (body.size() < 18) return false;
  std::uint16_t klen;
  std::memcpy(&klen, body.data(), 2);
  std::memcpy(&version, body.data() + 2, 8);
  std::memcpy(&expires_at_ps, body.data() + 10, 8);
  if (body.size() < 18u + klen) return false;
  key = std::string_view(reinterpret_cast<const char*>(body.data()) + 18, klen);
  value = body.subspan(18u + klen);
  return true;
}

std::vector<std::uint8_t> encode_version(std::uint64_t version) {
  std::vector<std::uint8_t> out(8);
  std::memcpy(out.data(), &version, 8);
  return out;
}
}  // namespace

// ------------------------------------------------------------- KvService --

KvService::KvService(cluster::TcCluster& cluster, RpcNode& rpc, ShardMap map,
                     KvConfig cfg)
    : cluster_(cluster),
      rpc_(rpc),
      map_(std::move(map)),
      cfg_(cfg),
      store_(static_cast<std::size_t>(map_.shards())),
      next_version_(static_cast<std::size_t>(map_.shards()), 0) {}

void KvService::start() {
  rpc_.handle(kKvGet, [this](const RpcContext& ctx, std::span<const std::uint8_t> b) {
    return on_get(ctx, b);
  });
  rpc_.handle(kKvPut, [this](const RpcContext& ctx, std::span<const std::uint8_t> b) {
    return on_put(ctx, b);
  });
  rpc_.handle(kKvReplicate,
              [this](const RpcContext& ctx, std::span<const std::uint8_t> b) {
                return on_replicate(ctx, b);
              });
}

const ShardMap& KvService::shard_map() const {
  return membership_ != nullptr ? membership_->map() : map_;
}

bool KvService::acting_primary(int shard) const {
  const ShardMap& m = shard_map();
  const int self = rpc_.chip();
  const int p = m.primary(shard);
  if (p == self) return true;
  return m.replica(shard) == self && !cluster_.driver(self).peer_alive(p);
}

Status KvService::admit(int shard) {
  if (!acting_primary(shard)) {
    ++stats_.not_primary_rejects;
    TCC_METRIC(detail::metrics().kv_not_primary.inc());
    return make_error(ErrorCode::kFailedPrecondition, "not primary for shard");
  }
  if (shard_map().primary(shard) != rpc_.chip()) {
    ++stats_.failover_serves;
    TCC_METRIC(detail::metrics().kv_failover_serves.inc());
  }
  return Status{};
}

bool KvService::isolated() const {
  const int self = rpc_.chip();
  bool any_other = false;
  for (const int s : shard_map().servers()) {
    if (s == self) continue;
    any_other = true;
    if (cluster_.driver(self).peer_alive(s)) return false;
  }
  return any_other;
}

std::vector<int> KvService::capture_forwards(int shard) const {
  std::vector<int> out;
  if (membership_ == nullptr) return out;
  const int self = rpc_.chip();
  const int partner = shard_map().partner_of(shard, self);
  for (const int t : membership_->forward_targets(shard)) {
    if (t != self && t != partner) out.push_back(t);
  }
  return out;
}

sim::Task<Status> KvService::replicate(int shard, Fanout& fanout,
                                       Picoseconds deadline) {
  const int self = rpc_.chip();
  const cluster::TcDriver& driver = cluster_.driver(self);
  auto send = [&](int target, const std::vector<std::uint8_t>& frame) {
    CallOptions opts;
    opts.channel = kReplicationChannel;
    opts.deadline =
        std::min(deadline, cluster_.engine().now() + cfg_.replicate_deadline);
    return rpc_.call(target, fanout.method, frame, opts);
  };
  auto refuse_isolated = [] {
    return make_error(ErrorCode::kUnavailable,
                      "refusing degraded ack: this chip looks isolated");
  };

  if (!fanout.partner_frame.empty()) {
    // Synchronous replication: ack only once the partner applied the write,
    // or is judged dead — then the surviving copy IS the store (a counted
    // degraded ack, open until a rebalance re-seeds the lost copy).
    const int partner = shard_map().partner_of(shard, self);
    bool degraded = partner >= 0 && !driver.peer_alive(partner);
    if (partner >= 0 && !degraded) {
      auto r = co_await send(partner, fanout.partner_frame);
      if (r.ok()) {
        ++stats_.replications_out;
      } else if (driver.peer_alive(partner)) {
        // Partner alive but the sub-call failed (e.g. its deadline expired
        // under load): refuse the ack so the client retries.
        co_return make_error(ErrorCode::kUnavailable,
                             "replication failed: " + r.error().to_string());
      } else {
        degraded = true;  // the partner died mid-replication
      }
    }
    if (degraded) {
      if (isolated()) co_return refuse_isolated();
      ++stats_.degraded_writes;
      ++stats_.degraded_open;
      TCC_METRIC(detail::metrics().kv_degraded_writes.inc());
      TCC_METRIC(detail::metrics().kv_degraded_open.add(1.0));
    }
    fanout.partner_frame.clear();
  }

  if (!fanout.forward_frame.empty()) {
    // Dual-write during migration: while this node is a rebalance stream
    // source, the ack also requires the write on every future owner — the
    // snapshot stream only covers keys behind its cursor. Version gating
    // dedupes writes that travel both paths, and a captured target that has
    // since become the partner.
    for (const int target : fanout.forward_targets) {
      if (!driver.peer_alive(target)) {
        // Skipping a dead stream target is fine (the move will be redone);
        // skipping it because our own verdicts are garbage is not.
        if (isolated()) co_return refuse_isolated();
        continue;
      }
      auto r = co_await send(target, fanout.forward_frame);
      if (!r.ok() && driver.peer_alive(target)) {
        co_return make_error(ErrorCode::kUnavailable,
                             "dual-write failed: " + r.error().to_string());
      }
      if (membership_ != nullptr) membership_->note_dual_write();
      TCC_METRIC(detail::metrics().rebalance_dual_writes.inc());
    }
    fanout.forward_frame.clear();
    fanout.forward_targets.clear();
  }
  co_return Status{};
}

std::vector<KvService::ExportedEntry> KvService::export_shard(
    int shard, std::string_view after_key, std::uint32_t max_bytes) const {
  std::vector<ExportedEntry> out;
  const auto& slot = store_.at(static_cast<std::size_t>(shard));
  auto it = after_key.empty() ? slot.begin() : slot.upper_bound(after_key);
  std::uint32_t bytes = 0;
  for (; it != slot.end(); ++it) {
    if (entry_expired(it->second)) continue;
    const auto sz = static_cast<std::uint32_t>(it->first.size() +
                                               it->second.value.size() + 16);
    if (!out.empty() && bytes + sz > max_bytes) break;
    out.push_back(ExportedEntry{it->first, it->second.version, it->second.value,
                                it->second.expires_at_ps});
    bytes += sz;
  }
  return out;
}

void KvService::apply_entry(int shard, std::string_view key,
                            std::uint64_t version,
                            std::span<const std::uint8_t> value,
                            std::int64_t expires_at_ps) {
  auto& slot = store_.at(static_cast<std::size_t>(shard));
  auto it = slot.find(key);
  // Version gate: streamed chunks, dual-written forwards and tcrel replays
  // may re-deliver the same (key, version) — only newer versions apply.
  if (it == slot.end() || version > it->second.version) {
    slot[std::string(key)] =
        Entry{version, {value.begin(), value.end()}, expires_at_ps};
  }
  auto& next = next_version_[static_cast<std::size_t>(shard)];
  next = std::max(next, version);
}

bool KvService::entry_expired(const Entry& e) const {
  return e.expires_at_ps > 0 &&
         cluster_.engine().now().count() >= e.expires_at_ps;
}

std::optional<KvService::ReadEntry> KvService::read_entry(int shard,
                                                          std::string_view key,
                                                          bool* expired) {
  if (expired != nullptr) *expired = false;
  auto& slot = store_.at(static_cast<std::size_t>(shard));
  auto it = slot.find(key);
  if (it == slot.end()) return std::nullopt;
  if (entry_expired(it->second)) {
    // Lazy expiry: the read that observes the deadline removes the entry.
    // Every copy runs the same sim clock and carries the same absolute
    // deadline, so all copies agree on visibility without coordination.
    slot.erase(it);
    if (expired != nullptr) *expired = true;
    return std::nullopt;
  }
  return ReadEntry{it->second.version, it->second.value,
                   it->second.expires_at_ps};
}

std::uint64_t KvService::write_entry(int shard, std::string_view key,
                                     std::span<const std::uint8_t> value,
                                     std::int64_t expires_at_ps) {
  const std::uint64_t version = ++next_version_[static_cast<std::size_t>(shard)];
  store_.at(static_cast<std::size_t>(shard))[std::string(key)] =
      Entry{version, {value.begin(), value.end()}, expires_at_ps};
  return version;
}

std::uint64_t KvService::sweep_expired() {
  std::uint64_t swept = 0;
  for (auto& slot : store_) {
    for (auto it = slot.begin(); it != slot.end();) {
      if (entry_expired(it->second)) {
        it = slot.erase(it);
        ++swept;
      } else {
        ++it;
      }
    }
  }
  return swept;
}

void KvService::reset_shard(int shard) {
  store_.at(static_cast<std::size_t>(shard)).clear();
  next_version_[static_cast<std::size_t>(shard)] = 0;
}

void KvService::drop_unowned() {
  const ShardMap& m = shard_map();
  const int self = rpc_.chip();
  for (int s = 0; s < m.shards(); ++s) {
    if (m.primary(s) == self || m.replica(s) == self) continue;
    if (!store_[static_cast<std::size_t>(s)].empty()) reset_shard(s);
  }
}

void KvService::clear_degraded_if_restored() {
  if (stats_.degraded_open == 0) return;
  const ShardMap& m = shard_map();
  const int self = rpc_.chip();
  for (int s = 0; s < m.shards(); ++s) {
    const int partner = m.partner_of(s, self);
    if (partner >= 0 && !cluster_.driver(self).peer_alive(partner)) {
      return;  // an owned shard still lacks a live partner — stay degraded
    }
  }
  // Every shard this node owns is fully replicated again (a rebalance
  // re-seeded the lost copies), so the degraded window closes; the
  // cumulative degraded_writes history is preserved.
  TCC_METRIC(detail::metrics().kv_degraded_open.add(
      -static_cast<double>(stats_.degraded_open)));
  stats_.degraded_open = 0;
}

std::uint64_t KvService::entries() const {
  std::uint64_t n = 0;
  for (const auto& shard : store_) n += shard.size();
  return n;
}

std::optional<std::vector<std::uint8_t>> KvService::peek(
    std::string_view key) const {
  const auto& shard = store_[static_cast<std::size_t>(shard_map().shard_of(key))];
  auto it = shard.find(key);
  if (it == shard.end() || entry_expired(it->second)) return std::nullopt;
  return it->second.value;
}

std::uint64_t KvService::version_of(std::string_view key) const {
  const auto& shard = store_[static_cast<std::size_t>(shard_map().shard_of(key))];
  auto it = shard.find(key);
  return it == shard.end() || entry_expired(it->second) ? 0
                                                        : it->second.version;
}

sim::Task<Result<std::vector<std::uint8_t>>> KvService::on_get(
    const RpcContext&, std::span<const std::uint8_t> body) {
  co_await cluster_.engine().delay(cfg_.get_compute);
  const std::string_view key(reinterpret_cast<const char*>(body.data()),
                             body.size());
  const int shard = shard_map().shard_of(key);
  if (Status s = admit(shard); !s.ok()) co_return s.error();
  ++stats_.gets;
  TCC_METRIC(detail::metrics().kv_gets.inc());
  bool expired = false;
  auto entry = read_entry(shard, key, &expired);
  if (expired) {
    TCC_METRIC(detail::metrics().kv_expired_reads.inc());
  }
  if (!entry.has_value()) {
    ++stats_.misses;
    TCC_METRIC(detail::metrics().kv_misses.inc());
    co_return make_error(ErrorCode::kNotFound, "no such key");
  }
  co_return std::move(entry->value);
}

sim::Task<Result<std::vector<std::uint8_t>>> KvService::on_put(
    const RpcContext& ctx, std::span<const std::uint8_t> body) {
  co_await cluster_.engine().delay(cfg_.put_compute);
  std::string_view key;
  std::span<const std::uint8_t> value;
  if (!decode_put(body, key, value) || key.empty()) {
    co_return make_error(ErrorCode::kInvalidArgument, "malformed put");
  }
  const int shard = shard_map().shard_of(key);
  if (Status s = admit(shard); !s.ok()) co_return s.error();
  Fanout fanout{kKvReplicate, {}, {}, capture_forwards(shard)};
  const std::uint64_t version = write_entry(shard, key, value, 0);
  ++stats_.puts;
  TCC_METRIC(detail::metrics().kv_puts.inc());

  // Partner and migration targets apply the same version-gated frame.
  fanout.partner_frame = encode_replicate(key, version, value);
  if (!fanout.forward_targets.empty()) fanout.forward_frame = fanout.partner_frame;
  if (Status s = co_await replicate(shard, fanout, ctx.deadline); !s.ok()) {
    co_return s.error();
  }
  co_return encode_version(version);
}

sim::Task<Result<std::vector<std::uint8_t>>> KvService::on_replicate(
    const RpcContext&, std::span<const std::uint8_t> body) {
  co_await cluster_.engine().delay(cfg_.put_compute);
  std::string_view key;
  std::uint64_t version = 0;
  std::int64_t expires_at_ps = 0;
  std::span<const std::uint8_t> value;
  if (!decode_replicate(body, key, version, expires_at_ps, value) ||
      key.empty()) {
    co_return make_error(ErrorCode::kInvalidArgument, "malformed replicate");
  }
  const int shard = shard_map().shard_of(key);
  apply_entry(shard, key, version, value, expires_at_ps);
  ++stats_.replications_in;
  TCC_METRIC(detail::metrics().kv_replications.inc());
  co_return std::vector<std::uint8_t>{};
}

// ---------------------------------------------------------- RoutedCaller --

RoutedCaller::RoutedCaller(cluster::TcCluster& cluster, RpcNode& rpc, ShardMap map,
                           Picoseconds op_deadline, Picoseconds attempt_deadline,
                           Picoseconds retry_backoff, RouteStats& stats)
    : cluster_(cluster),
      rpc_(rpc),
      map_(std::move(map)),
      op_deadline_(op_deadline),
      attempt_deadline_(attempt_deadline),
      retry_backoff_(retry_backoff),
      stats_(stats) {}

const ShardMap& RoutedCaller::shard_map() const {
  return membership_ != nullptr ? membership_->map() : map_;
}

Picoseconds RoutedCaller::deadline(std::optional<Picoseconds> deadline) const {
  return deadline.value_or(cluster_.engine().now() + op_deadline_);
}

sim::Task<Result<std::vector<std::uint8_t>>> RoutedCaller::call(
    std::uint16_t method, int shard, std::vector<std::uint8_t> payload,
    Picoseconds deadline) {
  sim::Engine& engine = cluster_.engine();
  const int self = rpc_.chip();
  auto alive = [&](int chip) {
    return chip == self || cluster_.driver(self).peer_alive(chip);
  };

  bool prefer_replica = false;
  for (;;) {
    // Placement is re-resolved per attempt: a rebalance committing between
    // attempts (the old owner answers kFailedPrecondition at cutover)
    // reroutes the very next retry to the new owner.
    const ShardMap& m = shard_map();
    const int p = m.primary(shard);
    const int r = m.replica(shard);
    int target = p;
    if ((prefer_replica || !alive(p)) && r >= 0) {
      target = r;
      ++stats_.failover_routes;
    }
    CallOptions opts;
    opts.channel = kClientChannel;
    opts.deadline = std::min(deadline, engine.now() + attempt_deadline_);
    auto result = co_await rpc_.call(target, method, payload, opts);
    if (result.ok()) co_return result;
    switch (result.error().code) {
      case ErrorCode::kNotFound:
      case ErrorCode::kInvalidArgument:
      case ErrorCode::kResourceExhausted:
      case ErrorCode::kProtocolViolation:
        co_return result;  // semantic outcomes: a retry would get the same
      default:
        break;
    }
    if (engine.now() + retry_backoff_ >= deadline) co_return result;
    ++stats_.retries;
    prefer_replica = (target == p);  // alternate copies across attempts
    co_await engine.delay(retry_backoff_);
  }
}

// -------------------------------------------------------------- KvClient --

KvClient::KvClient(cluster::TcCluster& cluster, RpcNode& rpc, ShardMap map,
                   KvConfig cfg)
    : route_(cluster, rpc, std::move(map), cfg.op_deadline, cfg.attempt_deadline,
             cfg.retry_backoff, stats_) {}

sim::Task<Result<std::vector<std::uint8_t>>> KvClient::get(
    std::string_view key, std::optional<Picoseconds> deadline) {
  ++stats_.gets;
  const Picoseconds abs = route_.deadline(deadline);
  std::vector<std::uint8_t> payload(key.begin(), key.end());
  co_return co_await route_.call(kKvGet, shard_map().shard_of(key),
                                 std::move(payload), abs);
}

sim::Task<Result<std::uint64_t>> KvClient::put(
    std::string_view key, std::span<const std::uint8_t> value,
    std::optional<Picoseconds> deadline) {
  ++stats_.puts;
  const Picoseconds abs = route_.deadline(deadline);
  auto result = co_await route_.call(kKvPut, shard_map().shard_of(key),
                                     encode_put(key, value), abs);
  if (!result.ok()) co_return result.error();
  if (result.value().size() != 8) {
    co_return make_error(ErrorCode::kProtocolViolation, "bad put response");
  }
  std::uint64_t version = 0;
  std::memcpy(&version, result.value().data(), 8);
  co_return version;
}

}  // namespace tcc::tcsvc
