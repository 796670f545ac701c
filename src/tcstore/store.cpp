#include "tcstore/store.hpp"

#include <algorithm>
#include <cstring>

#include "common/strings.hpp"
#include "tcstore/metrics_internal.hpp"

namespace tcc::tcstore {

void register_tcstore_metrics() { TCC_METRIC((void)detail::metrics()); }

// ---------------------------------------------------------- wire codecs --
//
// All little-endian, riding the ordinary RPC payload:
//   op:        u8 op, u16 klen, u64 client, u64 seq, u64 watermark,
//              i64 ttl_ps (relative; 0 = keep/none), i64 arg0, u32 vlen,
//              key, value
//   replicate: u8 op, u8 mode (0 record-only, 1 logical, 2 state),
//              u16 klen, u64 version, i64 expires_at_ps,
//              u64 client, u64 seq, u64 watermark, i64 arg0,
//              u32 code (0 = ok else ErrorCode+1), u32 rlen, u32 vlen,
//              key, resp, value
//   scan:      u32 shard, u32 max_bytes, u16 slen, u16 elen, start, end
//   scan resp: u8 done, u16 count,
//              { u16 klen, u64 version, u32 vlen, key, value }[count]
//
// Op responses: incr = u64 version, u64 value; cas = u8 success, u64
// version; append = u64 version, u32 size; set = u64 version. Error
// records keep the message in `resp` and replay it typed.

namespace {

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }
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
void put_bytes(std::vector<std::uint8_t>& out, std::span<const std::uint8_t> b) {
  out.insert(out.end(), b.begin(), b.end());
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

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::span<const std::uint8_t> as_bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

/// Decoded kStoreOp request.
struct OpRequest {
  StoreOp op{};
  std::string_view key;
  std::uint64_t client = 0;
  std::uint64_t seq = 0;
  std::uint64_t watermark = 0;
  std::int64_t ttl_ps = 0;
  std::int64_t arg0 = 0;
  std::string_view value;
};

bool decode_op(std::span<const std::uint8_t> body, OpRequest& req) {
  Reader r{body};
  req.op = static_cast<StoreOp>(r.get<std::uint8_t>());
  const auto klen = r.get<std::uint16_t>();
  req.client = r.get<std::uint64_t>();
  req.seq = r.get<std::uint64_t>();
  req.watermark = r.get<std::uint64_t>();
  req.ttl_ps = r.get<std::int64_t>();
  req.arg0 = r.get<std::int64_t>();
  const auto vlen = r.get<std::uint32_t>();
  req.key = r.bytes(klen);
  req.value = r.bytes(vlen);
  return r.ok && !req.key.empty();
}

std::vector<std::uint8_t> encode_op(StoreOp op, std::string_view key,
                                    std::uint64_t client, std::uint64_t seq,
                                    std::uint64_t watermark, std::int64_t ttl_ps,
                                    std::int64_t arg0,
                                    std::span<const std::uint8_t> value) {
  std::vector<std::uint8_t> out;
  out.reserve(47 + key.size() + value.size());
  put_u8(out, static_cast<std::uint8_t>(op));
  put_u16(out, static_cast<std::uint16_t>(key.size()));
  put_u64(out, client);
  put_u64(out, seq);
  put_u64(out, watermark);
  put_u64(out, static_cast<std::uint64_t>(ttl_ps));
  put_u64(out, static_cast<std::uint64_t>(arg0));
  put_u32(out, static_cast<std::uint32_t>(value.size()));
  put_bytes(out, as_bytes(key));
  put_bytes(out, value);
  return out;
}

/// Replication modes (kStoreReplicateOp `mode` byte).
constexpr std::uint8_t kModeRecordOnly = 0;  ///< dedup record, no state change
constexpr std::uint8_t kModeLogical = 1;     ///< partner re-executes the op
constexpr std::uint8_t kModeState = 2;       ///< target applies resulting state

struct ReplicateOp {
  StoreOp op{};
  std::uint8_t mode = kModeRecordOnly;
  std::string_view key;
  std::uint64_t version = 0;
  std::int64_t expires_at_ps = 0;
  std::uint64_t client = 0;
  std::uint64_t seq = 0;
  std::uint64_t watermark = 0;
  std::int64_t arg0 = 0;
  std::uint32_t code = 0;
  std::string_view resp;
  std::string_view value;
};

bool decode_replicate_op(std::span<const std::uint8_t> body, ReplicateOp& rep) {
  Reader r{body};
  rep.op = static_cast<StoreOp>(r.get<std::uint8_t>());
  rep.mode = r.get<std::uint8_t>();
  const auto klen = r.get<std::uint16_t>();
  rep.version = r.get<std::uint64_t>();
  rep.expires_at_ps = r.get<std::int64_t>();
  rep.client = r.get<std::uint64_t>();
  rep.seq = r.get<std::uint64_t>();
  rep.watermark = r.get<std::uint64_t>();
  rep.arg0 = r.get<std::int64_t>();
  rep.code = r.get<std::uint32_t>();
  const auto rlen = r.get<std::uint32_t>();
  const auto vlen = r.get<std::uint32_t>();
  rep.key = r.bytes(klen);
  rep.resp = r.bytes(rlen);
  rep.value = r.bytes(vlen);
  return r.ok && !rep.key.empty();
}

std::vector<std::uint8_t> encode_replicate_op(
    StoreOp op, std::uint8_t mode, std::string_view key, std::uint64_t version,
    std::int64_t expires_at_ps, std::uint64_t client, std::uint64_t seq,
    std::uint64_t watermark, std::int64_t arg0, std::uint32_t code,
    std::span<const std::uint8_t> resp, std::span<const std::uint8_t> value) {
  std::vector<std::uint8_t> out;
  out.reserve(64 + key.size() + resp.size() + value.size());
  put_u8(out, static_cast<std::uint8_t>(op));
  put_u8(out, mode);
  put_u16(out, static_cast<std::uint16_t>(key.size()));
  put_u64(out, version);
  put_u64(out, static_cast<std::uint64_t>(expires_at_ps));
  put_u64(out, client);
  put_u64(out, seq);
  put_u64(out, watermark);
  put_u64(out, static_cast<std::uint64_t>(arg0));
  put_u32(out, code);
  put_u32(out, static_cast<std::uint32_t>(resp.size()));
  put_u32(out, static_cast<std::uint32_t>(value.size()));
  put_bytes(out, as_bytes(key));
  put_bytes(out, resp);
  put_bytes(out, value);
  return out;
}

Error malformed(const char* what) {
  return make_error(ErrorCode::kProtocolViolation,
                    strprintf("malformed store frame: %s", what));
}

}  // namespace

// ----------------------------------------------------------- StoreService --

StoreService::StoreService(cluster::TcCluster& cluster, tcsvc::RpcNode& rpc,
                           tcsvc::KvService& kv, StoreConfig cfg)
    : cluster_(cluster),
      rpc_(rpc),
      kv_(kv),
      cfg_(cfg),
      dedup_(static_cast<std::size_t>(kv.shard_map().shards())) {
  TCC_ASSERT(cfg_.lock_stripes > 0, "lock_stripes must be positive");
  const std::size_t n = dedup_.size() * static_cast<std::size_t>(cfg_.lock_stripes);
  locks_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    locks_.push_back(std::make_unique<sim::Mutex>(cluster_.engine()));
  }
  register_tcstore_metrics();
}

void StoreService::start() {
  rpc_.handle(kStoreOp,
              [this](const tcsvc::RpcContext& ctx, std::span<const std::uint8_t> b) {
                return on_op(ctx, b);
              });
  rpc_.handle(kStoreReplicateOp,
              [this](const tcsvc::RpcContext& ctx, std::span<const std::uint8_t> b) {
                return on_replicate_op(ctx, b);
              });
  rpc_.handle(kStoreScan,
              [this](const tcsvc::RpcContext& ctx, std::span<const std::uint8_t> b) {
                return on_scan(ctx, b);
              });
  // Periodic TTL sweep: collects expired keys nobody reads. Exits once the
  // RpcNode is stopped so engine.run() can drain; determinism comes from the
  // fixed period and the absolute expiries (the sweep only ever removes
  // entries every copy already agrees are invisible).
  cluster_.engine().spawn_fn([this]() -> sim::Task<void> {
    while (!rpc_.stopped()) {
      co_await cluster_.engine().delay(cfg_.sweep_period);
      if (rpc_.stopped()) break;
      const std::uint64_t swept = kv_.sweep_expired();
      if (swept > 0) {
        stats_.swept += swept;
        TCC_METRIC(detail::metrics().ttl_swept.inc(swept));
      }
    }
  });
}

std::size_t StoreService::dedup_records() const {
  std::size_t n = 0;
  for (const auto& shard : dedup_) n += shard.size();
  return n;
}

sim::Mutex& StoreService::stripe_lock(int shard, std::string_view key) {
  const auto stripe = static_cast<std::size_t>(
      fnv1a(key) % static_cast<std::uint64_t>(cfg_.lock_stripes));
  return *locks_[static_cast<std::size_t>(shard) *
                     static_cast<std::size_t>(cfg_.lock_stripes) +
                 stripe];
}

void StoreService::prune_dedup(int shard, std::uint64_t client,
                               std::uint64_t watermark) {
  auto& table = dedup_[static_cast<std::size_t>(shard)];
  const auto first = table.lower_bound({client, 0});
  const auto last = table.lower_bound({client, watermark});
  const auto n = static_cast<std::uint64_t>(std::distance(first, last));
  if (n == 0) return;
  table.erase(first, last);
  stats_.dedup_pruned += n;
  TCC_METRIC(detail::metrics().dedup_pruned.inc(n));
  TCC_METRIC(detail::metrics().dedup_records.set(
      static_cast<double>(dedup_records())));
}

sim::Task<Result<std::vector<std::uint8_t>>> StoreService::on_op(
    const tcsvc::RpcContext& ctx, std::span<const std::uint8_t> body) {
  co_await cluster_.engine().delay(cfg_.op_compute);
  OpRequest req;
  if (!decode_op(body, req)) co_return malformed("op");
  const int shard = kv_.shard_map().shard_of(req.key);
  if (Status s = kv_.admit(shard); !s.ok()) co_return s.error();

  // Serialize read-modify-write + replication per key stripe: the partner
  // re-executes logical ops, so it must observe them in the order the
  // primary applied them — the lock is held across both.
  auto guard = co_await stripe_lock(shard, req.key).scoped();

  prune_dedup(shard, req.client, req.watermark);
  auto& table = dedup_[static_cast<std::size_t>(shard)];
  if (auto it = table.find({req.client, req.seq}); it != table.end()) {
    // Duplicate (client retry after a lost ack, or one that outlived a
    // failover): replay the recorded outcome instead of re-executing. Any
    // replication the original attempt could not push goes out first, so an
    // acked op exists on every live copy even when the ack itself needed a
    // retry to reach the client.
    ++stats_.dedup_hits;
    TCC_METRIC(detail::metrics().dedup_hits.inc());
    if (Status s = co_await kv_.replicate(shard, it->second.pending, ctx.deadline);
        !s.ok()) {
      co_return s.error();
    }
    if (it->second.code == 0) {
      co_return std::vector<std::uint8_t>(it->second.resp);
    }
    co_return make_error(
        static_cast<ErrorCode>(it->second.code - 1),
        std::string(it->second.resp.begin(), it->second.resp.end()));
  }

  // Capture the dual-write targets before mutating state (see
  // KvService::capture_forwards).
  tcsvc::KvService::Fanout fanout{kStoreReplicateOp, {}, {},
                                  kv_.capture_forwards(shard)};

  bool expired = false;
  const auto existing = kv_.read_entry(shard, req.key, &expired);

  // Execute. `code` 0 = ok; error outcomes are recorded and replayed too.
  std::uint32_t code = 0;
  std::string err_msg;
  bool changed = false;
  std::vector<std::uint8_t> new_value;
  std::uint64_t version = 0;  // assigned below iff changed
  const std::int64_t expires_at_ps =
      req.ttl_ps > 0 ? cluster_.engine().now().count() + req.ttl_ps
                     : (existing.has_value() ? existing->expires_at_ps : 0);
  std::vector<std::uint8_t> resp;

  switch (req.op) {
    case StoreOp::kIncr: {
      ++stats_.incrs;
      TCC_METRIC(detail::metrics().incrs.inc());
      if (existing.has_value() && existing->value.size() != 8) {
        code = static_cast<std::uint32_t>(ErrorCode::kInvalidArgument) + 1;
        err_msg = "incr on a non-counter value";
        break;
      }
      std::uint64_t counter = 0;
      if (existing.has_value()) std::memcpy(&counter, existing->value.data(), 8);
      counter += static_cast<std::uint64_t>(req.arg0);  // two's-complement wrap
      new_value.resize(8);
      std::memcpy(new_value.data(), &counter, 8);
      changed = true;
      break;
    }
    case StoreOp::kCas: {
      ++stats_.cas_ops;
      TCC_METRIC(detail::metrics().cas_ops.inc());
      const std::uint64_t current = existing.has_value() ? existing->version : 0;
      if (static_cast<std::uint64_t>(req.arg0) == current) {
        new_value.assign(req.value.begin(), req.value.end());
        changed = true;
      } else {
        ++stats_.cas_conflicts;
        TCC_METRIC(detail::metrics().cas_conflicts.inc());
        put_u8(resp, 0);
        put_u64(resp, current);  // conflict: report the version that won
      }
      break;
    }
    case StoreOp::kAppend: {
      ++stats_.appends;
      TCC_METRIC(detail::metrics().appends.inc());
      const std::size_t base = existing.has_value() ? existing->value.size() : 0;
      if (base + req.value.size() > cfg_.append_cap) {
        ++stats_.append_overflows;
        TCC_METRIC(detail::metrics().append_overflows.inc());
        code = static_cast<std::uint32_t>(ErrorCode::kResourceExhausted) + 1;
        err_msg = strprintf("append past cap (%zu + %zu > %u)", base,
                            req.value.size(), cfg_.append_cap);
        break;
      }
      if (existing.has_value()) new_value = existing->value;
      new_value.insert(new_value.end(), req.value.begin(), req.value.end());
      changed = true;
      break;
    }
    case StoreOp::kSet: {
      ++stats_.sets;
      TCC_METRIC(detail::metrics().sets.inc());
      new_value.assign(req.value.begin(), req.value.end());
      changed = true;
      break;
    }
    default:
      co_return malformed("unknown op kind");
  }

  if (changed) {
    version = kv_.write_entry(shard, req.key, new_value, expires_at_ps);
    switch (req.op) {
      case StoreOp::kIncr: {
        put_u64(resp, version);
        put_bytes(resp, new_value);  // the 8-byte counter after the add
        break;
      }
      case StoreOp::kCas: {
        put_u8(resp, 1);
        put_u64(resp, version);
        break;
      }
      case StoreOp::kAppend: {
        put_u64(resp, version);
        put_u32(resp, static_cast<std::uint32_t>(new_value.size()));
        break;
      }
      case StoreOp::kSet:
        put_u64(resp, version);
        break;
    }
  }

  OpRecord rec{code,
               code == 0 ? resp
                         : std::vector<std::uint8_t>(err_msg.begin(), err_msg.end()),
               std::move(fanout)};
  // Logical replication to the partner: the op and its operands, stamped
  // with the assigned version and absolute expiry. Outcomes without a state
  // change (CAS conflict, append overflow, typed errors) still travel as
  // record-only frames so a failover retry replays them.
  //
  // One exception falls back to state mode: a base entry that carries an
  // expiry. The partner re-executes strictly later than the primary, so the
  // base the primary read live could read as expired (absent) by the time
  // the frame lands — re-execution would start from scratch and diverge.
  // Shipping the resulting bytes sidesteps the race (see
  // docs/ARCHITECTURE.md "Store & mailboxes").
  const bool base_has_ttl = existing.has_value() && existing->expires_at_ps > 0;
  const std::uint8_t mode =
      !changed ? kModeRecordOnly : (base_has_ttl ? kModeState : kModeLogical);
  rec.pending.partner_frame = encode_replicate_op(
      req.op, mode, req.key, version, expires_at_ps, req.client, req.seq,
      req.watermark, req.arg0, code, rec.resp,
      mode == kModeState ? std::span<const std::uint8_t>(new_value)
                         : as_bytes(req.value));
  if (!rec.pending.forward_targets.empty()) {
    // State dual-write to migration targets: they may not hold the base
    // value yet (behind the snapshot cursor), so re-execution could diverge
    // — the resulting bytes travel instead, version-gated on apply.
    rec.pending.forward_frame = encode_replicate_op(
        req.op, changed ? kModeState : kModeRecordOnly, req.key, version,
        expires_at_ps, req.client, req.seq, req.watermark, req.arg0, code,
        rec.resp, new_value);
  }
  auto& stored = table[{req.client, req.seq}];
  stored = std::move(rec);
  TCC_METRIC(detail::metrics().dedup_records.set(
      static_cast<double>(dedup_records())));

  if (Status s = co_await kv_.replicate(shard, stored.pending, ctx.deadline);
      !s.ok()) {
    co_return s.error();
  }
  if (code == 0) co_return resp;
  co_return make_error(static_cast<ErrorCode>(code - 1), std::move(err_msg));
}

sim::Task<Result<std::vector<std::uint8_t>>> StoreService::on_replicate_op(
    const tcsvc::RpcContext&, std::span<const std::uint8_t> body) {
  co_await cluster_.engine().delay(cfg_.op_compute);
  ReplicateOp rep;
  if (!decode_replicate_op(body, rep)) co_return malformed("replicate op");
  const int shard = kv_.shard_map().shard_of(rep.key);

  prune_dedup(shard, rep.client, rep.watermark);
  if (rep.mode != kModeRecordOnly) {
    // Idempotence gate: the primary assigned this op a unique version, so a
    // local version at or past it means the op (or a migration snapshot that
    // already contains its effect) has been applied here.
    const std::uint64_t local = kv_.version_of(rep.key);
    if (rep.version > local) {
      std::vector<std::uint8_t> applied;
      if (rep.mode == kModeState) {
        applied.assign(rep.value.begin(), rep.value.end());
      } else {
        // Logical re-execution against the local copy. tcrel delivers
        // exactly-once in-order and the primary serializes per stripe, so
        // this copy has every earlier op — the result is bit-identical to
        // the primary's.
        bool expired = false;
        const auto existing = kv_.read_entry(shard, rep.key, &expired);
        switch (rep.op) {
          case StoreOp::kIncr: {
            std::uint64_t counter = 0;
            if (existing.has_value() && existing->value.size() == 8) {
              std::memcpy(&counter, existing->value.data(), 8);
            }
            counter += static_cast<std::uint64_t>(rep.arg0);
            applied.resize(8);
            std::memcpy(applied.data(), &counter, 8);
            break;
          }
          case StoreOp::kAppend: {
            if (existing.has_value()) applied = existing->value;
            applied.insert(applied.end(), rep.value.begin(), rep.value.end());
            break;
          }
          case StoreOp::kCas:
          case StoreOp::kSet:
          default:
            // The primary already validated the precondition; the new value
            // is the operand itself.
            applied.assign(rep.value.begin(), rep.value.end());
            break;
        }
      }
      kv_.apply_entry(shard, rep.key, rep.version, applied, rep.expires_at_ps);
    }
  }
  // Record the outcome for post-failover duplicate replay (insert-or-update:
  // a re-sent pending frame after a flaky first push just overwrites).
  dedup_[static_cast<std::size_t>(shard)][{rep.client, rep.seq}] = OpRecord{
      rep.code, {rep.resp.begin(), rep.resp.end()}, {}};
  ++stats_.replicated_ops;
  TCC_METRIC(detail::metrics().replicated_ops.inc());
  TCC_METRIC(detail::metrics().dedup_records.set(
      static_cast<double>(dedup_records())));
  co_return std::vector<std::uint8_t>{};
}

sim::Task<Result<std::vector<std::uint8_t>>> StoreService::on_scan(
    const tcsvc::RpcContext&, std::span<const std::uint8_t> body) {
  co_await cluster_.engine().delay(cfg_.op_compute);
  Reader r{body};
  const int shard = static_cast<int>(r.get<std::uint32_t>());
  const auto max_bytes = r.get<std::uint32_t>();
  const auto slen = r.get<std::uint16_t>();
  const auto elen = r.get<std::uint16_t>();
  const std::string_view start = r.bytes(slen);
  const std::string_view end = r.bytes(elen);
  if (!r.ok || shard < 0 || shard >= kv_.shard_map().shards()) {
    co_return malformed("scan");
  }
  if (Status s = kv_.admit(shard); !s.ok()) co_return s.error();

  // Reuse the migration export cursor: key order, bounded frame, expired
  // entries skipped. `done` once the shard is exhausted or the range ends.
  auto entries = kv_.export_shard(
      shard, start, std::min(max_bytes, cfg_.scan_frame_bytes));
  bool done = entries.empty();
  if (!end.empty()) {
    const auto cut = std::find_if(entries.begin(), entries.end(),
                                  [&](const auto& e) { return e.key >= end; });
    if (cut != entries.end()) {
      entries.erase(cut, entries.end());
      done = true;
    }
  }
  std::vector<std::uint8_t> resp;
  put_u8(resp, done ? 1 : 0);
  put_u16(resp, static_cast<std::uint16_t>(entries.size()));
  for (const auto& e : entries) {
    put_u16(resp, static_cast<std::uint16_t>(e.key.size()));
    put_u64(resp, e.version);
    put_u32(resp, static_cast<std::uint32_t>(e.value.size()));
    put_bytes(resp, as_bytes(e.key));
    put_bytes(resp, e.value);
  }
  ++stats_.scans;
  TCC_METRIC(detail::metrics().scans.inc());
  TCC_METRIC(detail::metrics().scan_entries.inc(entries.size()));
  co_return resp;
}

// ---- ShardAuxStreamer ----------------------------------------------------
//
// Aux blob codec: u16 count, { u64 client, u64 seq, u32 code, u32 rlen,
// resp }[count]. Pending replication frames are intentionally not streamed:
// whatever state they carry is either already local to the source (and thus
// in the entry snapshot) or re-pushed by the source's own flush; the target
// only needs the outcome for duplicate replay.

std::vector<std::vector<std::uint8_t>> StoreService::export_aux(
    int shard, std::uint32_t max_bytes) {
  std::vector<std::vector<std::uint8_t>> blobs;
  const auto& table = dedup_[static_cast<std::size_t>(shard)];
  std::vector<std::uint8_t> blob;
  std::uint16_t count = 0;
  auto flush = [&] {
    if (count == 0) return;
    std::memcpy(blob.data(), &count, 2);
    blobs.push_back(std::move(blob));
    blob.clear();
    count = 0;
  };
  for (const auto& [id, rec] : table) {
    if (blob.empty()) put_u16(blob, 0);  // count back-patched by flush
    put_u64(blob, id.first);
    put_u64(blob, id.second);
    put_u32(blob, rec.code);
    put_u32(blob, static_cast<std::uint32_t>(rec.resp.size()));
    put_bytes(blob, rec.resp);
    ++count;
    if (blob.size() >= max_bytes) flush();
  }
  flush();
  return blobs;
}

void StoreService::apply_aux(int shard, std::span<const std::uint8_t> blob) {
  Reader r{blob};
  const auto count = r.get<std::uint16_t>();
  auto& table = dedup_[static_cast<std::size_t>(shard)];
  for (std::uint16_t i = 0; i < count && r.ok; ++i) {
    const auto client = r.get<std::uint64_t>();
    const auto seq = r.get<std::uint64_t>();
    const auto code = r.get<std::uint32_t>();
    const auto rlen = r.get<std::uint32_t>();
    const std::string_view resp = r.bytes(rlen);
    if (!r.ok) break;
    // Insert-if-absent: a record that also arrived via the dual-write path
    // may carry fresher pending state — never downgrade it.
    table.try_emplace({client, seq},
                      OpRecord{code, {resp.begin(), resp.end()}, {}});
  }
  TCC_METRIC(detail::metrics().dedup_records.set(
      static_cast<double>(dedup_records())));
}

void StoreService::reset_aux(int shard) {
  dedup_[static_cast<std::size_t>(shard)].clear();
  TCC_METRIC(detail::metrics().dedup_records.set(
      static_cast<double>(dedup_records())));
}

// ------------------------------------------------------------ StoreClient --

StoreClient::StoreClient(cluster::TcCluster& cluster, tcsvc::RpcNode& rpc,
                         tcsvc::ShardMap map, StoreConfig cfg)
    : cfg_(cfg),
      route_(cluster, rpc, std::move(map), cfg.op_deadline, cfg.attempt_deadline,
             cfg.retry_backoff, stats_) {}

sim::Task<Result<std::vector<std::uint8_t>>> StoreClient::run_op(
    StoreOp op, std::string_view key, std::int64_t arg0,
    std::span<const std::uint8_t> value, Picoseconds ttl,
    std::optional<Picoseconds> deadline) {
  ++stats_.ops;
  const Picoseconds abs = route_.deadline(deadline);
  // One identity per op, assigned once and reused across every retry. The
  // watermark is the lowest seq still without a final outcome (including
  // this one): the primary may forget every record below it, because the
  // client will never retry those again.
  const std::uint64_t seq = next_seq_++;
  outstanding_.insert(seq);
  const std::uint64_t watermark = *outstanding_.begin();
  const auto client = static_cast<std::uint64_t>(route_.chip());
  auto result = co_await route_.call(
      kStoreOp, shard_map().shard_of(key),
      encode_op(op, key, client, seq, watermark, ttl.count(), arg0, value), abs);
  outstanding_.erase(seq);
  co_return result;
}

sim::Task<Result<StoreClient::IncrResult>> StoreClient::incr(
    std::string_view key, std::int64_t delta, Picoseconds ttl,
    std::optional<Picoseconds> deadline) {
  auto r = co_await run_op(StoreOp::kIncr, key, delta, {}, ttl, deadline);
  if (!r.ok()) co_return r.error();
  if (r.value().size() != 16) {
    co_return make_error(ErrorCode::kProtocolViolation, "bad incr response");
  }
  IncrResult out;
  std::memcpy(&out.version, r.value().data(), 8);
  std::memcpy(&out.value, r.value().data() + 8, 8);
  co_return out;
}

sim::Task<Result<StoreClient::CasResult>> StoreClient::cas(
    std::string_view key, std::uint64_t expected_version,
    std::span<const std::uint8_t> value, Picoseconds ttl,
    std::optional<Picoseconds> deadline) {
  auto r = co_await run_op(StoreOp::kCas, key,
                           static_cast<std::int64_t>(expected_version), value,
                           ttl, deadline);
  if (!r.ok()) co_return r.error();
  if (r.value().size() != 9) {
    co_return make_error(ErrorCode::kProtocolViolation, "bad cas response");
  }
  CasResult out;
  out.success = r.value()[0] != 0;
  std::memcpy(&out.version, r.value().data() + 1, 8);
  co_return out;
}

sim::Task<Result<StoreClient::AppendResult>> StoreClient::append(
    std::string_view key, std::span<const std::uint8_t> suffix, Picoseconds ttl,
    std::optional<Picoseconds> deadline) {
  auto r = co_await run_op(StoreOp::kAppend, key, 0, suffix, ttl, deadline);
  if (!r.ok()) co_return r.error();
  if (r.value().size() != 12) {
    co_return make_error(ErrorCode::kProtocolViolation, "bad append response");
  }
  AppendResult out;
  std::memcpy(&out.version, r.value().data(), 8);
  std::memcpy(&out.size, r.value().data() + 8, 4);
  co_return out;
}

sim::Task<Result<std::uint64_t>> StoreClient::set(
    std::string_view key, std::span<const std::uint8_t> value, Picoseconds ttl,
    std::optional<Picoseconds> deadline) {
  auto r = co_await run_op(StoreOp::kSet, key, 0, value, ttl, deadline);
  if (!r.ok()) co_return r.error();
  if (r.value().size() != 8) {
    co_return make_error(ErrorCode::kProtocolViolation, "bad set response");
  }
  std::uint64_t version = 0;
  std::memcpy(&version, r.value().data(), 8);
  co_return version;
}

sim::Task<Result<std::vector<ScanEntry>>> StoreClient::scan_shard(
    int shard, std::string_view start_key, std::string_view end_key,
    std::optional<Picoseconds> deadline) {
  const Picoseconds abs = route_.deadline(deadline);
  std::vector<ScanEntry> out;
  std::string cursor(start_key);
  for (;;) {
    std::vector<std::uint8_t> payload;
    put_u32(payload, static_cast<std::uint32_t>(shard));
    put_u32(payload, cfg_.scan_frame_bytes);
    put_u16(payload, static_cast<std::uint16_t>(cursor.size()));
    put_u16(payload, static_cast<std::uint16_t>(end_key.size()));
    put_bytes(payload, as_bytes(cursor));
    put_bytes(payload, as_bytes(end_key));
    auto r = co_await route_.call(kStoreScan, shard, std::move(payload), abs);
    if (!r.ok()) co_return r.error();

    Reader reader{r.value()};
    const bool done = reader.get<std::uint8_t>() != 0;
    const auto count = reader.get<std::uint16_t>();
    for (std::uint16_t i = 0; i < count && reader.ok; ++i) {
      const auto klen = reader.get<std::uint16_t>();
      const auto version = reader.get<std::uint64_t>();
      const auto vlen = reader.get<std::uint32_t>();
      const std::string_view key = reader.bytes(klen);
      const std::string_view value = reader.bytes(vlen);
      if (!reader.ok) break;
      out.push_back(ScanEntry{std::string(key), version,
                              {value.begin(), value.end()}});
    }
    if (!reader.ok) co_return malformed("scan response");
    if (done || count == 0) break;
    cursor = out.back().key;  // resume strictly after the last key received
  }
  co_return out;
}

}  // namespace tcc::tcstore
