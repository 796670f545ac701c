// tcrel: reliable, exactly-once, ordered delivery layered on the raw tcmsg
// ring, plus membership epochs for rejoin after faults.
//
// Raw tcmsg inherits HyperTransport's link-level integrity, but PR "fault
// domain" made links actually fail: posted writes into a dead link are
// dropped at the northbridge egress, so a message in flight during a
// blackout is silently lost and the receive cursor wedges forever. This
// layer adds the software end-to-end reliability the APEnet+ split
// prescribes (hardware link retry below, software sequencing above):
//
//  * every message carries a per-(peer, channel) sequence number and the
//    sender's current membership epoch packed into the raw slot marker's
//    high-half tag (MsgSlot) — the receive path already loads that word,
//    so the reliability header costs zero extra uncacheable reads and zero
//    payload bytes,
//  * the receiver publishes a cumulative delivered-count ACK into the ring
//    control block (kRelAckOffset) — piggybacked on the same posted path as
//    its own data, pushed standalone when the receive side idles or a
//    threshold of unacknowledged deliveries accumulates,
//  * the sender keeps every unacknowledged message in a bounded retransmit
//    buffer; a full buffer backpressures send() with a typed kBackpressure
//    (once its deadline passes) instead of ever overwriting unacked slots,
//  * loss is detected as ACK stall against the simulated clock and healed by
//    an epoch bump: both sides reset the raw rings, then the sender replays
//    the retransmit buffer. Stale-epoch packets are discarded on receipt.
//
// The epoch handshake doubles as the rejoin protocol: when the TcDriver
// keepalive resurrects a dead peer (or the ACK stall detector fires during
// the blackout), the side that notices initiates a sync through the control
// block — see docs/ARCHITECTURE.md "Delivery guarantees" for the state
// machine. Everything runs on the simulated clock; no wall time.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "sim/mutex.hpp"
#include "tccluster/msg.hpp"

namespace tcc::cluster {

/// Register the tccluster.rel.* metrics with the global registry. Called by
/// TcDriver::load() so the names exist for the docs-catalogue test even in
/// runs that never touch the reliability layer. No-op without telemetry.
void register_reliable_metrics();

/// Deliveries without a piggyback opportunity before a standalone ACK push
/// (mirrors raw tcmsg's kAckThreshold). Also the batch size for republishing
/// on a flood of suppressed duplicates.
inline constexpr std::uint64_t kRelAckThreshold = 8;

/// The knobs tests turn (wraparound, window pressure, fast stall recovery).
/// Every other tcrel timing and sizing value is a named constant in
/// reliable.cpp.
struct RelConfig {
  /// Wire width of the sequence number (test knob for wraparound coverage).
  /// At most 16: the wire seq lives in the low half of the marker tag. The
  /// window must stay below 2^(seq_bits-1) so modular deltas are
  /// unambiguous.
  int seq_bits = 16;
  /// Max unacknowledged messages buffered per endpoint before send()
  /// backpressures.
  std::uint64_t window = 32;
  /// No ACK progress for this long with messages outstanding -> resend the
  /// unacked window (go-back-N; the deadline-driven retransmit).
  Picoseconds stall_timeout = Picoseconds::from_us(25.0);
  /// Consecutive fruitless stall resends before escalating to an epoch sync
  /// (a resend cannot fill a hole a lost posted write left in the raw ring;
  /// only a ring reset can).
  int stall_sync_strikes = 3;
};

/// Per-endpoint counters (process-wide aggregates live in tccluster.rel.*).
struct RelStats {
  std::uint64_t sent = 0;                ///< messages accepted by send()
  std::uint64_t delivered = 0;           ///< messages handed to recv() callers
  std::uint64_t acked = 0;               ///< sent messages confirmed by the peer ACK
  std::uint64_t retransmits = 0;         ///< stall resends + post-sync replays
  std::uint64_t duplicates_dropped = 0;  ///< re-deliveries suppressed by seqno
  std::uint64_t stale_epoch_drops = 0;   ///< packets from a superseded epoch
  std::uint64_t gap_drops = 0;           ///< future-seq packets dropped awaiting replay
  std::uint64_t backpressure_stalls = 0; ///< send() returns of kBackpressure
  std::uint64_t epoch_bumps = 0;         ///< syncs this endpoint participated in
  std::uint64_t acks_pushed = 0;         ///< standalone ACK word publishes
  std::uint64_t ack_deferrals = 0;       ///< threshold publishes deferred mid-burst
  std::uint64_t groups_sent = 0;         ///< packed line-groups handed to the ring
};

/// One entry of the bounded diagnostics log trace_export turns into
/// Perfetto instant events.
struct RelEvent {
  enum class Kind { kRetransmit, kEpochBump, kBackpressure };
  Kind kind = Kind::kRetransmit;
  Picoseconds at{};
  std::uint64_t a = 0;  ///< kRetransmit: seq; kEpochBump: new epoch; kBackpressure: window head seq
  std::uint64_t b = 0;  ///< kRetransmit: epoch; kEpochBump: 1 if this side initiated
};

class ReliableEndpoint {
 public:
  ReliableEndpoint(TcDriver& driver, opteron::Core& core, int peer_chip,
                   RingChannel channel, RelConfig cfg);

  ~ReliableEndpoint();

  ReliableEndpoint(const ReliableEndpoint&) = delete;
  ReliableEndpoint& operator=(const ReliableEndpoint&) = delete;

  /// Largest single reliable message. The rel header rides in the marker
  /// tag, not in payload bytes, so the raw limit passes through unchanged.
  static constexpr std::uint32_t kMaxPayloadBytes = kMaxMessageBytes;

  [[nodiscard]] int peer() const { return peer_; }
  [[nodiscard]] RingChannel channel() const { return channel_; }
  [[nodiscard]] const RelStats& stats() const { return stats_; }
  [[nodiscard]] const RelConfig& config() const { return cfg_; }

  /// Reliable ordered send. Blocks while the retransmit window is full;
  /// with a `deadline` (absolute simulated time) a still-full window past
  /// it returns typed kBackpressure and the message is NOT accepted.
  /// Once send() returns OK the message is accepted: it stays in the
  /// retransmit buffer and will be delivered exactly once however many
  /// faults intervene.
  [[nodiscard]] sim::Task<Status> send(std::span<const std::uint8_t> payload,
                                       std::optional<Picoseconds> deadline = std::nullopt);

  /// Segment arbitrarily large data into reliable messages.
  [[nodiscard]] sim::Task<Status> send_bytes(
      std::span<const std::uint8_t> payload,
      std::optional<Picoseconds> deadline = std::nullopt);

  /// Reliable ordered receive: returns the next never-before-delivered
  /// message, transparently dropping duplicates, stale-epoch packets and
  /// out-of-order fragments, and running retransmit/epoch recovery while it
  /// waits. With a `deadline`, returns kTimeout once it passes.
  [[nodiscard]] sim::Task<Result<std::vector<std::uint8_t>>> recv(
      std::optional<Picoseconds> deadline = std::nullopt);

  /// True if something is waiting in the raw ring (it may still be a
  /// duplicate that recv() will silently drop). Also advances background
  /// recovery, so idle pollers keep retransmits and epoch syncs moving.
  [[nodiscard]] sim::Task<bool> poll();

  /// Wait until every accepted message has been acknowledged by the peer
  /// (the put-flush barrier primitive). kTimeout past the deadline.
  [[nodiscard]] sim::Task<Status> flush(
      std::optional<Picoseconds> deadline = std::nullopt);

  /// Spawn a background process that runs recovery every kPumpInterval —
  /// only needed when neither side is inside send()/recv()/poll() for long
  /// stretches. Stop it before expecting engine().run() to drain.
  void start_pump();
  void stop_pump() { pump_stop_ = true; }
  [[nodiscard]] bool pump_running() const { return pump_running_; }

  // ---- introspection (diag, trace export, tests) --------------------------
  [[nodiscard]] std::uint64_t epoch() const { return local_epoch_; }
  [[nodiscard]] bool syncing() const { return sync_pending_; }
  /// Messages accepted but not yet acknowledged (retransmit-queue depth).
  [[nodiscard]] std::uint64_t unacked() const { return buffer_.size(); }
  /// Highest own-send sequence the peer has acknowledged.
  [[nodiscard]] std::uint64_t last_acked_seq() const { return peer_delivered_; }
  /// Messages delivered to local recv() callers (what we ACK to the peer).
  [[nodiscard]] std::uint64_t delivered_count() const { return delivered_; }
  [[nodiscard]] const std::vector<RelEvent>& events() const { return events_; }
  [[nodiscard]] std::uint64_t events_dropped() const { return events_dropped_; }

 private:
  struct Pending {
    std::uint64_t seq = 0;
    std::vector<std::uint8_t> payload;
    std::uint64_t retransmits = 0;
  };

  [[nodiscard]] std::uint64_t seq_mask() const {
    return (std::uint64_t{1} << cfg_.seq_bits) - 1;
  }

  /// Pack seq/epoch/seq_bits into the raw marker tag (layout in
  /// reliable.cpp).
  [[nodiscard]] std::uint32_t make_tag(std::uint64_t seq) const;

  /// Raw-send one message with the rel tag; caller holds the tx mutex.
  /// Returns false when the raw layer would not take it (ring full / link
  /// dead within kRawSlice) — the message stays buffered and
  /// drain_unsent() re-attempts it as credits return.
  [[nodiscard]] sim::Task<bool> transmit(std::uint64_t seq,
                                         std::span<const std::uint8_t> payload);

  /// Raw-send a run of consecutive buffered messages as ONE packed
  /// line-group (the copies are the caller's — the deque shifts across
  /// suspensions). Caller holds the tx mutex. False on raw refusal, and the
  /// whole group stays buffered (send_packed is all-or-nothing).
  [[nodiscard]] sim::Task<bool> transmit_group(const std::vector<Pending>& run);

  /// Arm the one-shot delayed-ACK timer (no-op if already armed).
  void arm_ack_timer();

  /// A duplicate or stale-epoch packet was suppressed: it is proof the peer
  /// is retransmitting, i.e. our cumulative ACK may have died on the wire.
  /// Counts toward the ACK-refresh opportunity check — the first suppressed
  /// packet since the last publish republishes immediately, later ones
  /// batch up to kRelAckThreshold so a CRC-storm duplicate flood does not pay
  /// a control store + sfence per packet.
  [[nodiscard]] sim::Task<void> note_suppressed();

  /// Hand buffered-but-never-transmitted messages (seq >= next_unsent_seq_)
  /// to the raw ring in order, stopping at the first refusal. Caller holds
  /// the tx mutex. This is what keeps bulk streams moving when a message
  /// outruns ring credits: transmission order always equals seq order, so a
  /// later message is never raw-sent ahead of an earlier refusal.
  [[nodiscard]] sim::Task<void> drain_unsent();

  /// Opportunistic recovery step, throttled to kProgressInterval:
  /// refresh the peer ACK word, poll the peer epoch word (adopt / complete
  /// syncs), detect ACK stalls and keepalive rejoin edges, republish while
  /// syncing.
  [[nodiscard]] sim::Task<void> progress();

  [[nodiscard]] sim::Task<void> refresh_acks();
  [[nodiscard]] sim::Task<void> initiate_sync();
  [[nodiscard]] sim::Task<void> adopt_epoch(std::uint64_t epoch);
  [[nodiscard]] sim::Task<void> complete_sync();
  [[nodiscard]] sim::Task<void> replay_unacked();
  [[nodiscard]] sim::Task<void> resend_window();
  [[nodiscard]] sim::Task<void> publish_ack();
  [[nodiscard]] sim::Task<void> publish_epoch();
  [[nodiscard]] sim::Task<void> pump_process();

  void record(RelEvent::Kind kind, std::uint64_t a, std::uint64_t b);

  TcDriver& driver_;
  opteron::Core& core_;
  int peer_;
  RingChannel channel_;
  RelConfig cfg_;
  MsgEndpoint raw_;

  // Control-block addresses (see driver.hpp layout comment).
  PhysAddr ack_in_;     ///< local:  peer's delivered count (acks our sends)
  PhysAddr epoch_in_;   ///< local:  peer's epoch word
  PhysAddr ack_out_;    ///< remote: our delivered count
  PhysAddr epoch_out_;  ///< remote: our epoch word

  // Transmit state.
  std::uint64_t next_send_seq_ = 1;
  /// Lowest seq not yet successfully handed to the raw ring this epoch
  /// (<= next_send_seq_; equality means no unsent backlog).
  std::uint64_t next_unsent_seq_ = 1;
  std::deque<Pending> buffer_;
  std::uint64_t peer_delivered_ = 0;   ///< cached ACK word
  Picoseconds last_tx_progress_{};
  int stall_strikes_ = 0;  ///< fruitless stall resends since the last ACK move
  sim::Mutex tx_mutex_;

  // Receive state.
  std::uint64_t delivered_ = 0;
  std::uint64_t acked_out_ = 0;        ///< last published ACK value
  std::uint64_t suppressed_since_ack_ = 0;  ///< dup/stale drops since a publish
  int gap_streak_ = 0;
  bool ack_timer_armed_ = false;
  sim::TimerHandle ack_timer_;  ///< pending delayed-ACK, cancellable
  sim::Mutex rx_mutex_;

  // Epoch state.
  std::uint64_t local_epoch_ = 0;
  std::uint64_t peer_epoch_seen_ = 0;
  bool sync_pending_ = false;  ///< initiator waiting for the peer echo
  bool sync_armed_ = false;    ///< initiator finished its rx reset + publish
  bool prev_peer_alive_ = true;

  Picoseconds last_progress_check_ = Picoseconds::zero();  // zero = never ran
  Picoseconds last_epoch_check_ = Picoseconds::zero();     // zero = never ran
  Picoseconds last_ack_refresh_ = Picoseconds::zero();     // zero = never ran
  bool pump_running_ = false;
  bool pump_stop_ = false;
  /// Liveness token for the detached delayed-ACK timer tasks: they hold a
  /// copy and bail out if the endpoint died before they fired.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  RelStats stats_;
  std::vector<RelEvent> events_;
  std::uint64_t events_dropped_ = 0;
};

/// Per-node factory mirroring MsgLibrary: opens reliable endpoints on
/// demand. Each ReliableEndpoint owns its raw MsgEndpoint — do not also use
/// MsgLibrary::connect() on the same (peer, channel) ring, the cursors
/// would fight.
class ReliableLibrary {
 public:
  ReliableLibrary(TcDriver& driver, opteron::Core& core, RelConfig cfg = {});

  ReliableLibrary(const ReliableLibrary&) = delete;
  ReliableLibrary& operator=(const ReliableLibrary&) = delete;

  [[nodiscard]] Result<ReliableEndpoint*> connect(
      int peer_chip, RingChannel channel = RingChannel::kApp);

  [[nodiscard]] TcDriver& driver() { return driver_; }
  [[nodiscard]] const RelConfig& config() const { return cfg_; }

  /// Every endpoint opened so far (diag / trace export iterate these).
  [[nodiscard]] std::vector<ReliableEndpoint*> open_endpoints();

  /// Stop every running background pump (engine drain hygiene).
  void stop_pumps();

 private:
  TcDriver& driver_;
  opteron::Core& core_;
  RelConfig cfg_;
  /// endpoints_[channel][peer]
  std::vector<std::unique_ptr<ReliableEndpoint>> endpoints_[kNumChannels];
};

}  // namespace tcc::cluster
