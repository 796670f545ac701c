#include "tcsvc/rpc.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "tcsvc/metrics_internal.hpp"

namespace tcc::tcsvc {

void register_tcsvc_metrics() { TCC_METRIC((void)detail::metrics()); }

// ------------------------------------------------------------- RpcHeader --

namespace {
void put_u16(std::uint8_t* p, std::uint16_t v) { std::memcpy(p, &v, 2); }
void put_u32(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
void put_i64(std::uint8_t* p, std::int64_t v) { std::memcpy(p, &v, 8); }
std::uint16_t get_u16(const std::uint8_t* p) {
  std::uint16_t v;
  std::memcpy(&v, p, 2);
  return v;
}
std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}
std::int64_t get_i64(const std::uint8_t* p) {
  std::int64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

std::vector<std::uint8_t> make_frame(const RpcHeader& hdr,
                                     std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> frame(RpcHeader::kWireBytes + payload.size());
  hdr.encode(frame.data());
  std::copy(payload.begin(), payload.end(), frame.begin() + RpcHeader::kWireBytes);
  return frame;
}
}  // namespace

void RpcHeader::encode(std::uint8_t* out) const {
  out[0] = static_cast<std::uint8_t>(kind);
  out[1] = channel;
  put_u16(out + 2, method);
  put_u32(out + 4, corr);
  put_i64(out + 8, deadline_ps);
  put_u32(out + 16, status);
  put_u32(out + 20, reserved);
}

RpcHeader RpcHeader::decode(const std::uint8_t* in) {
  RpcHeader h;
  h.kind = static_cast<Kind>(in[0]);
  h.channel = in[1];
  h.method = get_u16(in + 2);
  h.corr = get_u32(in + 4);
  h.deadline_ps = get_i64(in + 8);
  h.status = get_u32(in + 16);
  h.reserved = get_u32(in + 20);
  return h;
}

// --------------------------------------------------------------- RpcNode --

namespace {
/// Receive-slice of the per-peer serve pump: how often it wakes to notice
/// stop() and run tcrel recovery while a peer idles.
constexpr Picoseconds kServeSlice = Picoseconds::from_us(5.0);
/// Cap on the per-peer cancelled-correlation set (FIFO eviction).
constexpr std::size_t kMaxCancelled = 1024;
}  // namespace

RpcNode::RpcNode(cluster::TcCluster& cluster, int chip, RpcConfig cfg)
    : cluster_(cluster), chip_(chip), cfg_(cfg) {
  TCC_ASSERT(cfg_.request_credits > 0, "request_credits must be positive");
  register_tcsvc_metrics();
}

RpcNode::~RpcNode() {
  stopped_ = true;
  *alive_ = false;
}

void RpcNode::handle(std::uint16_t method, Handler handler) {
  handlers_[method] = std::move(handler);
}

Status RpcNode::start(std::span<const int> peers) {
  for (int peer : peers) {
    if (peer == chip_) continue;
    auto ps = peer_state(peer);
    if (!ps.ok()) return ps.error();
  }
  return Status{};
}

void RpcNode::resume() {
  if (!stopped_) return;
  stopped_ = false;
  for (auto& [peer, ps] : peers_) {
    if (ps->pump_running) continue;  // still draining its last slice
    PeerState* raw = ps.get();
    raw->pump_running = true;
    const int p = peer;
    cluster_.engine().spawn_fn(
        [this, raw, p]() -> sim::Task<void> { co_await pump(raw, p); });
  }
}

cluster::ReliableEndpoint* RpcNode::endpoint(int peer) {
  auto it = peers_.find(peer);
  return it == peers_.end() ? nullptr : it->second->ep;
}

int RpcNode::credits(int peer) const {
  auto it = peers_.find(peer);
  return it == peers_.end() ? cfg_.request_credits : it->second->credits;
}

Result<RpcNode::PeerState*> RpcNode::peer_state(int peer) {
  auto it = peers_.find(peer);
  if (it != peers_.end()) return it->second.get();
  auto ep = cluster_.rel(chip_).connect(peer);
  if (!ep.ok()) return ep.error();
  auto ps = std::make_unique<PeerState>(cluster_.engine());
  ps->ep = ep.value();
  ps->credits = cfg_.request_credits;
  PeerState* raw = ps.get();
  peers_[peer] = std::move(ps);
  // Every endpoint pair gets exactly one receive pump: it demuxes requests,
  // responses and cancels, and keeps tcrel recovery moving while idle.
  raw->pump_running = true;
  cluster_.engine().spawn_fn(
      [this, raw, peer]() -> sim::Task<void> { co_await pump(raw, peer); });
  return raw;
}

sim::Task<void> RpcNode::pump(PeerState* ps, int peer) {
  sim::Engine& engine = cluster_.engine();
  while (!stopped_) {
    auto r = co_await ps->ep->recv(engine.now() + kServeSlice);
    if (!r.ok()) {
      if (r.error().code == ErrorCode::kTimeout) continue;  // idle slice
      // Transient raw-layer trouble (ring reset mid-recv, dead link): back
      // off one slice; tcrel recovery runs inside the next recv().
      co_await engine.delay(kServeSlice);
      continue;
    }
    dispatch(ps, peer, std::move(r).value());
  }
  ps->pump_running = false;
}

void RpcNode::dispatch(PeerState* ps, int peer, std::vector<std::uint8_t> frame) {
  if (frame.size() < RpcHeader::kWireBytes) return;  // not ours; drop
  const RpcHeader hdr = RpcHeader::decode(frame.data());
  sim::Engine& engine = cluster_.engine();
  switch (hdr.kind) {
    case RpcHeader::Kind::kRequest: {
      if (engine.now().count() > hdr.deadline_ps) {
        ++stats_.expired_dropped;
        TCC_METRIC(detail::metrics().rpc_expired.inc());
        return;  // the caller has already given up; do no dead work
      }
      engine.spawn_fn([this, ps, peer, f = std::move(frame)]() -> sim::Task<void> {
        co_await serve(ps, peer, std::move(f));
      });
      return;
    }
    case RpcHeader::Kind::kResponse:
    case RpcHeader::Kind::kError: {
      auto it = ps->pending.find(hdr.corr);
      if (it == ps->pending.end()) return;  // caller timed out; late reply
      auto pc = it->second;
      ps->pending.erase(it);
      if (hdr.kind == RpcHeader::Kind::kResponse) {
        pc->result.emplace(std::vector<std::uint8_t>(
            frame.begin() + RpcHeader::kWireBytes, frame.end()));
      } else {
        const bool valid = hdr.status >= 1 &&
                           hdr.status <= static_cast<std::uint32_t>(
                                             ErrorCode::kBackpressure) + 1;
        const auto code = valid ? static_cast<ErrorCode>(hdr.status - 1)
                                : ErrorCode::kProtocolViolation;
        std::string msg(frame.begin() + RpcHeader::kWireBytes, frame.end());
        pc->result.emplace(make_error(code, std::move(msg)));
      }
      pc->done = true;
      pc->wake.notify();
      return;
    }
    case RpcHeader::Kind::kCancel:
      note_cancel(ps, hdr.corr);
      return;
  }
}

sim::Task<void> RpcNode::serve(PeerState* ps, int peer,
                               std::vector<std::uint8_t> frame) {
  const RpcHeader hdr = RpcHeader::decode(frame.data());
  sim::Engine& engine = cluster_.engine();
  const Picoseconds start = engine.now();
  const RpcContext ctx{peer, hdr.method, hdr.channel, Picoseconds{hdr.deadline_ps}};
  const std::span<const std::uint8_t> body{frame.data() + RpcHeader::kWireBytes,
                                           frame.size() - RpcHeader::kWireBytes};

  Result<std::vector<std::uint8_t>> result =
      make_error(ErrorCode::kNotFound, "no such method");
  auto handler = handlers_.find(hdr.method);
  if (handler != handlers_.end()) {
    result = co_await handler->second(ctx, body);
  }
  ++stats_.requests_served;
  TCC_METRIC(detail::metrics().rpc_requests_served.inc());
  record_span({peer, hdr.method, hdr.channel, hdr.corr, start, engine.now(),
               result.ok() ? ErrorCode::kInvalidArgument : result.error().code,
               result.ok(), /*server=*/true});

  if (ps->cancelled.erase(hdr.corr) > 0) {
    ++stats_.cancelled_dropped;
    TCC_METRIC(detail::metrics().rpc_cancelled.inc());
    co_return;  // the caller cancelled; suppress the reply
  }
  if (engine.now().count() > hdr.deadline_ps) {
    ++stats_.expired_dropped;
    TCC_METRIC(detail::metrics().rpc_expired.inc());
    co_return;  // expired while the handler ran
  }

  RpcHeader reply;
  reply.channel = hdr.channel;
  reply.method = hdr.method;
  reply.corr = hdr.corr;
  reply.deadline_ps = hdr.deadline_ps;
  std::vector<std::uint8_t> reply_frame;
  if (result.ok()) {
    reply.kind = RpcHeader::Kind::kResponse;
    reply_frame = make_frame(reply, result.value());
  } else {
    reply.kind = RpcHeader::Kind::kError;
    reply.status = static_cast<std::uint32_t>(result.error().code) + 1;
    const std::string& msg = result.error().message;
    reply_frame = make_frame(
        reply, {reinterpret_cast<const std::uint8_t*>(msg.data()), msg.size()});
  }
  // Best-effort: a reply we cannot push before the caller's deadline is a
  // reply the caller will not read.
  (void)co_await ps->ep->send(reply_frame, Picoseconds{hdr.deadline_ps});
}

void RpcNode::note_cancel(PeerState* ps, std::uint32_t corr) {
  if (ps->cancelled.insert(corr).second) ps->cancelled_order.push_back(corr);
  while (ps->cancelled.size() > kMaxCancelled && !ps->cancelled_order.empty()) {
    ps->cancelled.erase(ps->cancelled_order.front());
    ps->cancelled_order.pop_front();
  }
}

sim::Task<Result<std::vector<std::uint8_t>>> RpcNode::dispatch_local(
    std::uint16_t method, std::span<const std::uint8_t> payload, CallOptions opts) {
  sim::Engine& engine = cluster_.engine();
  const Picoseconds start = engine.now();
  const Picoseconds deadline =
      opts.deadline.value_or(start + kDefaultCallDeadline);
  Result<std::vector<std::uint8_t>> result =
      make_error(ErrorCode::kNotFound, "no such method");
  auto handler = handlers_.find(method);
  if (handler != handlers_.end()) {
    const RpcContext ctx{chip_, method, opts.channel, deadline};
    result = co_await handler->second(ctx, payload);
  }
  ++stats_.requests_served;
  ++stats_.responses;
  TCC_METRIC(detail::metrics().rpc_requests_served.inc());
  TCC_METRIC(detail::metrics().rpc_responses.inc());
  record_span({chip_, method, opts.channel, 0, start, engine.now(),
               result.ok() ? ErrorCode::kInvalidArgument : result.error().code,
               result.ok(), /*server=*/false});
  co_return result;
}

sim::Task<Result<std::vector<std::uint8_t>>> RpcNode::call(
    int peer, std::uint16_t method, std::span<const std::uint8_t> payload,
    CallOptions opts) {
  sim::Engine& engine = cluster_.engine();
  ++stats_.calls;
  TCC_METRIC(detail::metrics().rpc_calls.inc());
  if (payload.size() > kMaxPayloadBytes) {
    co_return make_error(ErrorCode::kInvalidArgument, "rpc payload too large");
  }
  if (peer == chip_) {
    // Local dispatch: no ring between a node and itself (the rel layer
    // rejects self-connects), so serve straight out of the handler table.
    co_return co_await dispatch_local(method, payload, opts);
  }

  const Picoseconds start = engine.now();
  const Picoseconds deadline =
      opts.deadline.value_or(start + kDefaultCallDeadline);
  auto ps_result = peer_state(peer);
  if (!ps_result.ok()) co_return ps_result.error();
  PeerState* ps = ps_result.value();

  // Admission check: a call whose deadline has already passed must not burn a
  // credit and a retransmit-buffer slot to deliver a guaranteed expired drop.
  if (engine.now() >= deadline) {
    ++stats_.timeouts;
    TCC_METRIC(detail::metrics().rpc_timeouts.inc());
    record_span({peer, method, opts.channel, 0, start, engine.now(),
                 ErrorCode::kTimeout, false, false});
    co_return make_error(ErrorCode::kTimeout, "deadline expired at admission");
  }

  // Acquire an outstanding-call credit; the deadline timer below doubles as
  // the bail-out wake-up so a starved caller never waits past its deadline.
  bool stalled = false;
  if (ps->credits == 0) {
    stalled = true;
    ++stats_.credit_stalls;
    TCC_METRIC(detail::metrics().rpc_credit_stalls.inc());
    sim::TimerHandle credit_timer =
        engine.schedule_timer_at(deadline, [alive = alive_, ps] {
          if (*alive) ps->credit_free.notify();
        });
    while (ps->credits == 0 && engine.now() < deadline) {
      co_await ps->credit_free.wait();
    }
    (void)engine.cancel(credit_timer);
    if (ps->credits == 0) {
      ++stats_.backpressure;
      TCC_METRIC(detail::metrics().rpc_backpressure.inc());
      record_span({peer, method, opts.channel, 0, start, engine.now(),
                   ErrorCode::kBackpressure, false, false});
      co_return make_error(ErrorCode::kBackpressure,
                           "no request credit before deadline");
    }
    if (engine.now() >= deadline) {
      // A credit freed up exactly at (or after) the deadline boundary:
      // admitting now would post a send whose tcrel deadline has already
      // passed. Leave the credit for a live caller.
      ++stats_.timeouts;
      TCC_METRIC(detail::metrics().rpc_timeouts.inc());
      record_span({peer, method, opts.channel, 0, start, engine.now(),
                   ErrorCode::kTimeout, false, false});
      co_return make_error(ErrorCode::kTimeout,
                           "deadline expired while waiting for credit");
    }
  }
  (void)stalled;
  CreditGuard credit(ps);

  RpcHeader hdr;
  hdr.kind = RpcHeader::Kind::kRequest;
  hdr.channel = opts.channel;
  hdr.method = method;
  hdr.corr = ps->next_corr++;
  hdr.deadline_ps = deadline.count();
  const std::uint32_t corr = hdr.corr;

  auto pc = std::make_shared<PendingCall>(engine);
  ps->pending[corr] = pc;

  const Status sent = co_await ps->ep->send(make_frame(hdr, payload), deadline);
  if (!sent.ok()) {
    ps->pending.erase(corr);
    credit.release();
    const bool bp = sent.error().code == ErrorCode::kBackpressure;
    if (bp) {
      ++stats_.backpressure;
      TCC_METRIC(detail::metrics().rpc_backpressure.inc());
    } else {
      ++stats_.timeouts;
      TCC_METRIC(detail::metrics().rpc_timeouts.inc());
    }
    record_span({peer, method, opts.channel, corr, start, engine.now(),
                 sent.error().code, false, false});
    co_return sent.error();
  }

  pc->deadline_timer = engine.schedule_timer_at(deadline, [pc] {
    if (!pc->done) pc->wake.notify();
  });
  while (!pc->done && engine.now() < deadline) {
    co_await pc->wake.wait();
  }
  (void)engine.cancel(pc->deadline_timer);
  credit.release();

  if (pc->done) {
    ++stats_.responses;
    TCC_METRIC(detail::metrics().rpc_responses.inc());
    Result<std::vector<std::uint8_t>> result = std::move(*pc->result);
    record_span({peer, method, opts.channel, corr, start, engine.now(),
                 result.ok() ? ErrorCode::kInvalidArgument : result.error().code,
                 result.ok(), false});
    co_return result;
  }

  // Deadline expired: tell the server not to bother replying. Fire and
  // forget — if the cancel cannot be pushed promptly it is pointless.
  ps->pending.erase(corr);
  ++stats_.timeouts;
  TCC_METRIC(detail::metrics().rpc_timeouts.inc());
  RpcHeader cancel;
  cancel.kind = RpcHeader::Kind::kCancel;
  cancel.channel = opts.channel;
  cancel.method = method;
  cancel.corr = corr;
  cancel.deadline_ps = (engine.now() + kServeSlice).count();
  ++stats_.cancels_sent;
  TCC_METRIC(detail::metrics().rpc_cancels.inc());
  engine.spawn_fn([alive = alive_, ps, cancel,
                   until = engine.now() + kServeSlice]() -> sim::Task<void> {
    if (!*alive) co_return;
    (void)co_await ps->ep->send(make_frame(cancel, {}), until);
  });
  record_span({peer, method, opts.channel, corr, start, engine.now(),
               ErrorCode::kTimeout, false, false});
  co_return make_error(ErrorCode::kTimeout, "rpc deadline expired");
}

void RpcNode::record_span(const RpcSpan& span) {
  if (spans_.size() >= cfg_.max_spans) {
    ++spans_dropped_;
    return;
  }
  spans_.push_back(span);
}

// ---------------------------------------------------------- trace export --

void export_rpc_spans(telemetry::ChromeTraceWriter& writer,
                      std::span<RpcNode* const> nodes, int first_pid) {
  for (RpcNode* node : nodes) {
    const int pid = first_pid + node->chip();
    writer.set_process_name(pid, "chip " + std::to_string(node->chip()) + " rpc");
    writer.set_thread_name(pid, 0, "client calls");
    writer.set_thread_name(pid, 1, "handler runs");
    for (const RpcSpan& s : node->spans()) {
      telemetry::ChromeTraceWriter::Args args = {
          telemetry::ChromeTraceWriter::arg_num("peer",
                                                static_cast<std::uint64_t>(s.peer)),
          telemetry::ChromeTraceWriter::arg_num("corr",
                                                static_cast<std::uint64_t>(s.corr)),
          telemetry::ChromeTraceWriter::arg_num(
              "channel", static_cast<std::uint64_t>(s.channel)),
          telemetry::ChromeTraceWriter::arg_str("status",
                                                s.ok ? "ok" : to_string(s.status)),
      };
      writer.complete(pid, s.server ? 1 : 0, s.start.count(),
                      (s.end - s.start).count(),
                      "method " + std::to_string(s.method), "rpc",
                      std::move(args));
    }
    if (node->spans_dropped() > 0) {
      writer.instant(pid, 0, 0, "span log saturated", "rpc",
                     {telemetry::ChromeTraceWriter::arg_num(
                         "dropped", node->spans_dropped())});
    }
  }
}

Status write_rpc_trace(std::span<RpcNode* const> nodes, const std::string& path) {
  telemetry::ChromeTraceWriter writer;
  export_rpc_spans(writer, nodes);
  return writer.write(path);
}

}  // namespace tcc::tcsvc
