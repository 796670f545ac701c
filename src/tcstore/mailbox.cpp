#include "tcstore/mailbox.hpp"

#include <algorithm>
#include <cstring>

#include "common/strings.hpp"
#include "tcstore/metrics_internal.hpp"

namespace tcc::tcstore {

// Wire (kMailboxSend body, little-endian): u16 namelen, u64 seq, name,
// payload. The sender chip rides the RPC context, not the frame.

namespace {

std::vector<std::uint8_t> encode_send(std::string_view name, std::uint64_t seq,
                                      std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> out(10 + name.size() + payload.size());
  const auto nlen = static_cast<std::uint16_t>(name.size());
  std::memcpy(out.data(), &nlen, 2);
  std::memcpy(out.data() + 2, &seq, 8);
  std::memcpy(out.data() + 10, name.data(), name.size());
  std::copy(payload.begin(), payload.end(), out.begin() + 10 + name.size());
  return out;
}

bool decode_send(std::span<const std::uint8_t> body, std::string_view& name,
                 std::uint64_t& seq, std::span<const std::uint8_t>& payload) {
  if (body.size() < 10) return false;
  std::uint16_t nlen;
  std::memcpy(&nlen, body.data(), 2);
  std::memcpy(&seq, body.data() + 2, 8);
  if (body.size() < 10u + nlen) return false;
  name = std::string_view(reinterpret_cast<const char*>(body.data()) + 10, nlen);
  payload = body.subspan(10u + nlen);
  return !name.empty();
}

}  // namespace

// --------------------------------------------------------- MailboxService --

MailboxService::MailboxService(cluster::TcCluster& cluster, tcsvc::RpcNode& rpc,
                               tcsvc::KvService& kv, MailboxConfig cfg)
    : cluster_(cluster), rpc_(rpc), kv_(kv), cfg_(cfg) {
  register_tcstore_metrics();
}

void MailboxService::start() {
  rpc_.handle(kMailboxSend,
              [this](const tcsvc::RpcContext& ctx, std::span<const std::uint8_t> b) {
                return on_send(ctx, b);
              });
}

void MailboxService::open(std::string name, Handler handler) {
  boxes_[std::move(name)] = std::move(handler);
}

void MailboxService::close(std::string_view name) {
  if (auto it = boxes_.find(name); it != boxes_.end()) boxes_.erase(it);
}

bool MailboxService::is_open(std::string_view name) const {
  return boxes_.find(name) != boxes_.end();
}

sim::Task<Result<std::vector<std::uint8_t>>> MailboxService::on_send(
    const tcsvc::RpcContext& ctx, std::span<const std::uint8_t> body) {
  co_await cluster_.engine().delay(cfg_.deliver_compute);
  std::string_view name;
  std::uint64_t seq = 0;
  std::span<const std::uint8_t> payload;
  if (!decode_send(body, name, seq, payload)) {
    co_return make_error(ErrorCode::kProtocolViolation, "malformed mailbox send");
  }
  // The home is derived, never stored: the name hashes to a shard, the home
  // is that shard's acting primary under the committed map.
  const int shard = kv_.shard_map().shard_of(name);
  if (!kv_.acting_primary(shard)) {
    ++stats_.wrong_home_rejects;
    TCC_METRIC(detail::metrics().mailbox_wrong_home.inc());
    co_return make_error(ErrorCode::kFailedPrecondition,
                         "not the home for this mailbox");
  }
  const auto box = boxes_.find(name);
  if (box == boxes_.end()) {
    ++stats_.dead_letters;
    TCC_METRIC(detail::metrics().mailbox_dead_letters.inc());
    co_return make_error(ErrorCode::kNotFound,
                         strprintf("dead mailbox: %.*s",
                                   static_cast<int>(name.size()), name.data()));
  }
  // FIFO + exactly-once per (sender, mailbox) pair: the client consumes one
  // seq per message, so anything at or below the delivered high-water mark
  // is a retry of a message that already landed — ok-ack it without
  // redelivering. An unknown pair adopts the first seq it sees (the history
  // lived on the previous home; the client's sequencer never advances past
  // an undelivered message, so order still holds across the move).
  auto [it, fresh] =
      last_seq_.try_emplace({std::string(name), static_cast<std::uint64_t>(ctx.peer)},
                            0);
  if (!fresh && seq <= it->second) {
    ++stats_.duplicates;
    TCC_METRIC(detail::metrics().mailbox_duplicates.inc());
    co_return std::vector<std::uint8_t>{};
  }
  it->second = seq;
  box->second(ctx.peer, payload);
  ++stats_.delivered;
  TCC_METRIC(detail::metrics().mailbox_delivered.inc());
  co_return std::vector<std::uint8_t>{};
}

// ---------------------------------------------------------- MailboxClient --

MailboxClient::MailboxClient(cluster::TcCluster& cluster, tcsvc::RpcNode& rpc,
                             tcsvc::ShardMap map, MailboxConfig cfg)
    : cluster_(cluster),
      route_(cluster, rpc, std::move(map), cfg.op_deadline, cfg.attempt_deadline,
             cfg.retry_backoff, stats_) {}

sim::Task<Status> MailboxClient::send(std::string_view name,
                                      std::span<const std::uint8_t> payload,
                                      std::optional<Picoseconds> deadline) {
  ++stats_.sends;
  TCC_METRIC(detail::metrics().mailbox_sends.inc());
  const Picoseconds abs = route_.deadline(deadline);

  auto box_it = boxes_.find(name);
  if (box_it == boxes_.end()) {
    box_it = boxes_.emplace(std::string(name), Box(cluster_.engine())).first;
  }
  Box& box = box_it->second;
  // Serialize per name: message k+1 is not even assigned a seq until k has a
  // final outcome, so concurrent app-level sends keep FIFO order.
  auto guard = co_await box.mutex->scoped();
  const std::uint64_t seq = box.next_seq++;
  // Availability trouble retries the other copy with the SAME seq (the home
  // suppresses the duplicate if the original did land); a dead mailbox is
  // final and typed.
  auto r = co_await route_.call(kMailboxSend, shard_map().shard_of(name),
                                encode_send(name, seq, payload), abs);
  if (!r.ok()) co_return r.error();
  co_return Status{};
}

}  // namespace tcc::tcstore
