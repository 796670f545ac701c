// tcsvc RPC: request/response framing over tcrel, the first serving-layer
// primitive on top of the exactly-once message substrate.
//
// One RpcNode per chip multiplexes any number of logical channels and
// outstanding calls per peer over a single tcrel endpoint pair:
//
//  * every frame starts with a fixed 24-byte header carrying the frame kind,
//    logical channel, method id, correlation id, absolute deadline and a
//    typed status. tcrel already spends the entire 32-bit slot-marker tag on
//    its own header (rel flag, seq width, kind, epoch, wire seq — see
//    reliable.cpp), so the RPC header rides in the payload's first bytes
//    instead of the marker word; at 24 bytes it costs well under 1% of a
//    full frame and keeps the tcrel wire format untouched,
//  * correlation ids pair responses with pending calls, so any number of
//    calls overlap on one ordered stream; logical channels let independent
//    request classes (e.g. client traffic vs replication) share the pair
//    without inventing more rings,
//  * per-peer request credits bound the outstanding-call window. A call
//    first waits for a credit (typed kBackpressure once its deadline
//    passes — the same contract tcrel's window-full send has, surfaced one
//    layer up), so an open-loop overload degrades into queueing delay and
//    typed rejections instead of unbounded buffering,
//  * deadlines are absolute simulated times, propagated down into the tcrel
//    send/recv deadlines and across the wire to the server, which drops
//    requests that expired in flight instead of doing dead work,
//  * a timed-out caller best-effort posts a cancel frame; the server keeps a
//    bounded set of cancelled correlation ids and suppresses those
//    responses. Errors come back as typed frames (ErrorCode + message), not
//    as silence.
//
// Per-call client/server spans land in a bounded log that exports to
// Perfetto through telemetry::ChromeTraceWriter (write_rpc_trace), and the
// tcsvc.rpc.* metrics feed the global registry (docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sim/engine.hpp"
#include "tccluster/cluster.hpp"
#include "telemetry/chrome_trace.hpp"

namespace tcc::tcsvc {

/// Register the tcsvc.* metric names with the global registry so the docs
/// catalogue test sees them even in runs that never serve a request. No-op
/// without telemetry.
void register_tcsvc_metrics();

/// Logical RPC channels: client traffic, replication and membership share
/// each peer pair without interleaving their correlation spaces.
inline constexpr std::uint8_t kClientChannel = 0;
inline constexpr std::uint8_t kReplicationChannel = 1;
inline constexpr std::uint8_t kMembershipChannel = 2;

/// Deadline for calls that do not pass their own (relative to call time).
inline constexpr Picoseconds kDefaultCallDeadline = Picoseconds::from_us(500.0);

/// Tuning knobs of one RpcNode.
struct RpcConfig {
  /// Outstanding-call window per peer; a call with no credit by its
  /// deadline returns typed kBackpressure.
  int request_credits = 16;
  /// Cap on the per-node span log (Perfetto export); drops are counted.
  std::size_t max_spans = 4096;
};

/// Per-node counters (process-wide aggregates live in tcsvc.rpc.*).
struct RpcStats {
  std::uint64_t calls = 0;            ///< requests issued by call()
  std::uint64_t responses = 0;        ///< completions handed back to callers (ok or typed error)
  std::uint64_t timeouts = 0;         ///< calls that hit their deadline
  std::uint64_t cancels_sent = 0;     ///< best-effort cancel frames posted after a timeout
  std::uint64_t credit_stalls = 0;    ///< calls that had to wait for a request credit
  std::uint64_t backpressure = 0;     ///< calls rejected with kBackpressure
  std::uint64_t requests_served = 0;  ///< handler invocations completed server-side
  std::uint64_t expired_dropped = 0;  ///< requests dropped: deadline passed before dispatch
  std::uint64_t cancelled_dropped = 0;///< responses suppressed by a cancel frame
};

/// One client- or server-side call span for the Perfetto export.
struct RpcSpan {
  int peer = -1;
  std::uint16_t method = 0;
  std::uint8_t channel = 0;
  std::uint32_t corr = 0;
  Picoseconds start{};
  Picoseconds end{};
  ErrorCode status = ErrorCode::kInvalidArgument;  ///< meaningful iff !ok
  bool ok = true;
  bool server = false;  ///< true: handler execution; false: caller wait
};

/// What a handler learns about the request it is serving.
struct RpcContext {
  int peer = -1;            ///< calling chip
  std::uint16_t method = 0;
  std::uint8_t channel = 0;
  Picoseconds deadline{};   ///< absolute; the caller gives up past this
};

/// Per-call options.
struct CallOptions {
  std::uint8_t channel = 0;
  /// Absolute deadline; kDefaultCallDeadline from now when absent.
  std::optional<Picoseconds> deadline;
};

class RpcNode {
 public:
  /// A handler returns the response payload or a typed error; both travel
  /// back to the caller as a frame. Handlers run as independent sim tasks,
  /// so a slow method never blocks the receive pump.
  using Handler = std::function<sim::Task<Result<std::vector<std::uint8_t>>>(
      const RpcContext&, std::span<const std::uint8_t>)>;

  /// Largest request/response payload: one tcrel message minus the 24-byte
  /// wire header (RpcHeader::kWireBytes, kept literal here so the header
  /// struct can be declared after the node that speaks it).
  static constexpr std::uint32_t kMaxPayloadBytes =
      cluster::ReliableEndpoint::kMaxPayloadBytes - 24;

  RpcNode(cluster::TcCluster& cluster, int chip, RpcConfig cfg = {});

  RpcNode(const RpcNode&) = delete;
  RpcNode& operator=(const RpcNode&) = delete;
  ~RpcNode();

  [[nodiscard]] int chip() const { return chip_; }
  [[nodiscard]] const RpcStats& stats() const { return stats_; }
  [[nodiscard]] const RpcConfig& config() const { return cfg_; }

  /// Register (or replace) the handler for `method`.
  void handle(std::uint16_t method, Handler handler);

  /// Open endpoints and start a serve pump toward each peer. call() also
  /// starts a pump on demand; start() is for servers that must listen
  /// before the first outbound call.
  Status start(std::span<const int> peers);

  /// Stop every serve pump (they exit within one serve slice) so
  /// engine().run() can drain. In-flight handler tasks still finish.
  void stop() { stopped_ = true; }
  [[nodiscard]] bool stopped() const { return stopped_; }

  /// Undo stop(): restart the serve pump toward every known peer. This is
  /// the warm-reset rejoin path — a node that went dark (hung driver, RPC
  /// stopped) comes back on the same endpoints; tcrel epoch sync reconciles
  /// the streams underneath.
  void resume();

  /// Issue one call and wait for the response, a typed error reply, or the
  /// deadline. `peer == chip()` dispatches locally without touching a ring.
  [[nodiscard]] sim::Task<Result<std::vector<std::uint8_t>>> call(
      int peer, std::uint16_t method, std::span<const std::uint8_t> payload,
      CallOptions opts = {});

  // ---- introspection (tests, trace export) -------------------------------
  /// Free request credits toward `peer` right now — the full configured pool
  /// when no call is outstanding (also for peers never called). The
  /// credit-leak regression oracle: after any storm of timeouts/cancels
  /// drains, this must read request_credits again.
  [[nodiscard]] int credits(int peer) const;
  [[nodiscard]] const std::vector<RpcSpan>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t spans_dropped() const { return spans_dropped_; }
  /// The tcrel endpoint behind `peer`, nullptr before first use (tests
  /// assert on its epoch to bound failover cost).
  [[nodiscard]] cluster::ReliableEndpoint* endpoint(int peer);

 private:
  struct PendingCall {
    explicit PendingCall(sim::Engine& engine) : wake(engine) {}
    bool done = false;
    std::optional<Result<std::vector<std::uint8_t>>> result;
    sim::Trigger wake;
    /// Deadline wake-up; cancelled once the call completes so finished
    /// calls don't leave dead timer events polluting the engine queue.
    sim::TimerHandle deadline_timer;
  };

  struct PeerState {
    explicit PeerState(sim::Engine& engine) : credit_free(engine) {}
    cluster::ReliableEndpoint* ep = nullptr;
    int credits = 0;
    bool pump_running = false;
    std::uint32_t next_corr = 1;
    std::map<std::uint32_t, std::shared_ptr<PendingCall>> pending;
    /// Correlation ids the peer cancelled, FIFO-bounded.
    std::set<std::uint32_t> cancelled;
    std::deque<std::uint32_t> cancelled_order;
    sim::Trigger credit_free;
  };

  /// Single-owner RAII holder of one taken request credit. Every call() exit
  /// edge — send failure, timeout, cancel, response, or any future early
  /// co_return — returns the credit exactly once through this guard, so no
  /// control-flow change can silently shrink a peer's pool.
  class CreditGuard {
   public:
    explicit CreditGuard(PeerState* ps) : ps_(ps) { --ps_->credits; }
    ~CreditGuard() { release(); }
    CreditGuard(const CreditGuard&) = delete;
    CreditGuard& operator=(const CreditGuard&) = delete;
    void release() {
      if (ps_ == nullptr) return;
      ++ps_->credits;
      ps_->credit_free.notify();
      ps_ = nullptr;
    }

   private:
    PeerState* ps_;
  };

  [[nodiscard]] Result<PeerState*> peer_state(int peer);
  [[nodiscard]] sim::Task<void> pump(PeerState* ps, int peer);
  void dispatch(PeerState* ps, int peer, std::vector<std::uint8_t> frame);
  [[nodiscard]] sim::Task<void> serve(PeerState* ps, int peer,
                                      std::vector<std::uint8_t> frame);
  [[nodiscard]] sim::Task<Result<std::vector<std::uint8_t>>> dispatch_local(
      std::uint16_t method, std::span<const std::uint8_t> payload,
      CallOptions opts);
  void note_cancel(PeerState* ps, std::uint32_t corr);
  void record_span(const RpcSpan& span);

  cluster::TcCluster& cluster_;
  int chip_;
  RpcConfig cfg_;
  bool stopped_ = false;
  std::map<std::uint16_t, Handler> handlers_;
  std::map<int, std::unique_ptr<PeerState>> peers_;
  RpcStats stats_;
  std::vector<RpcSpan> spans_;
  std::uint64_t spans_dropped_ = 0;
  /// Liveness token for detached deadline timers (the node may die first).
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

/// Wire header, serialized little-endian at the front of every frame.
struct RpcHeader {
  enum class Kind : std::uint8_t {
    kRequest = 0,
    kResponse = 1,
    kError = 2,   ///< payload = error message bytes, status = ErrorCode
    kCancel = 3,  ///< corr identifies the call to suppress
  };
  static constexpr std::size_t kWireBytes = 24;

  Kind kind = Kind::kRequest;
  std::uint8_t channel = 0;
  std::uint16_t method = 0;
  std::uint32_t corr = 0;
  std::int64_t deadline_ps = 0;  ///< absolute simulated time
  std::uint32_t status = 0;      ///< ErrorCode + 1 on kError frames, else 0
  std::uint32_t reserved = 0;

  void encode(std::uint8_t* out) const;
  static RpcHeader decode(const std::uint8_t* in);
};

static_assert(RpcNode::kMaxPayloadBytes ==
              cluster::ReliableEndpoint::kMaxPayloadBytes - RpcHeader::kWireBytes);

/// Emit every node's client/server spans as Perfetto slices: one process
/// per node ("chip N rpc"), tid 0 = client waits, tid 1 = handler runs.
void export_rpc_spans(telemetry::ChromeTraceWriter& writer,
                      std::span<RpcNode* const> nodes, int first_pid = 9000);

/// export_rpc_spans straight to a loadable trace file.
Status write_rpc_trace(std::span<RpcNode* const> nodes, const std::string& path);

}  // namespace tcc::tcsvc
