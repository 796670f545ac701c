#include "tccluster/reliable.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "opteron/timing.hpp"
#include "telemetry/metrics.hpp"

namespace tcc::cluster {

#if TCC_TELEMETRY_ENABLED
namespace {

/// Reliability-layer accounting aggregated across every endpoint in the
/// process (per-endpoint numbers stay in ReliableEndpoint::stats()).
struct RelMetrics {
  telemetry::Counter& sends =
      telemetry::MetricsRegistry::global().counter("tccluster.rel.sends");
  telemetry::Counter& delivered =
      telemetry::MetricsRegistry::global().counter("tccluster.rel.delivered");
  telemetry::Counter& acked =
      telemetry::MetricsRegistry::global().counter("tccluster.rel.acked");
  telemetry::Counter& retransmits = telemetry::MetricsRegistry::global().counter(
      "tccluster.rel.retransmits");
  telemetry::Counter& duplicates_dropped = telemetry::MetricsRegistry::global().counter(
      "tccluster.rel.duplicates_dropped");
  telemetry::Counter& stale_epoch_drops = telemetry::MetricsRegistry::global().counter(
      "tccluster.rel.stale_epoch_drops");
  telemetry::Counter& gap_drops =
      telemetry::MetricsRegistry::global().counter("tccluster.rel.gap_drops");
  telemetry::Counter& backpressure_stalls = telemetry::MetricsRegistry::global().counter(
      "tccluster.rel.backpressure_stalls");
  telemetry::Counter& epoch_bumps = telemetry::MetricsRegistry::global().counter(
      "tccluster.rel.epoch_bumps");
  // Batched cumulative-ACK publication.
  telemetry::Counter& ack_batch_published = telemetry::MetricsRegistry::global().counter(
      "tccluster.rel.ack_batch.published");
  telemetry::Counter& ack_batch_deferred = telemetry::MetricsRegistry::global().counter(
      "tccluster.rel.ack_batch.deferred");
  telemetry::Histogram& ack_batch_size = telemetry::MetricsRegistry::global().histogram(
      "tccluster.rel.ack_batch.size");
  // Packed line-groups handed to the raw ring by the drain path.
  telemetry::Counter& groups_sent = telemetry::MetricsRegistry::global().counter(
      "tccluster.rel.groups_sent");
};

RelMetrics& rel_metrics() {
  static RelMetrics m;
  return m;
}

}  // namespace
#endif  // TCC_TELEMETRY_ENABLED

void register_reliable_metrics() { TCC_METRIC((void)rel_metrics()); }

namespace {

/// Throttle for the opportunistic progress checks (ack refresh, epoch word
/// poll) inside send/recv/poll loops.
constexpr Picoseconds kProgressInterval = Picoseconds::from_ns(500.0);
/// Background pump period (start_pump()); also the epoch republish beat.
constexpr Picoseconds kPumpInterval = Picoseconds::from_us(2.0);
/// Bound on any single raw-ring operation while a mutex is held, so an epoch
/// reset can always interleave with a wedged raw op.
constexpr Picoseconds kRawSlice = Picoseconds::from_us(2.0);
/// Settle delay before a sync initiator resets its receive ring, letting
/// in-flight raw stores from the old epoch land (flight time is orders of
/// magnitude below every initiation trigger; this is belt-and-braces).
constexpr Picoseconds kDrainDelay = Picoseconds::from_ns(500.0);
/// Batched-ACK hard cap: while a delivery burst is still draining (more
/// sub-messages decoded and queued at the raw layer), the kRelAckThreshold
/// publish is deferred so the whole burst costs ONE control-block write —
/// but never past this many unacknowledged deliveries. Keep it below the
/// peer's window or a long burst could stall the sender mid-burst; the
/// delayed-ACK timer (kAckDelay) bounds the deferral in time regardless.
constexpr std::uint64_t kAckBatchLimit = 24;
/// Packed line-group coalescing in the transmit drain path: a run of
/// consecutive buffered messages each no larger than this is handed to the
/// raw ring as ONE group (one doorbell, one credit acquisition, one sequence
/// number at the slot level).
constexpr std::uint32_t kPackEligibleBytes = 256;
/// Cap on a packed group's region (record headers included). Bounds how many
/// ring credits one drain round can claim at once.
constexpr std::uint32_t kPackGroupBytes = 1024;
/// Delayed-ACK bound: every delivery arms a one-shot timer; if nothing else
/// (piggyback, idle-edge push, threshold) has published the ACK by then, the
/// timer does. Keeps the delivery fast path free of ACK stores while still
/// covering a caller that stops calling recv() right after the stream's
/// last message.
constexpr Picoseconds kAckDelay = Picoseconds::from_us(1.0);
/// Cadence for loading the peer's ACK word with sends outstanding but no
/// pressure (window under half full, no untransmitted backlog). Pressure
/// makes the refresh eager again; this only bounds how stale the stall clock
/// can run in a relaxed request/response exchange.
constexpr Picoseconds kAckRefreshInterval = Picoseconds::from_us(2.0);
/// Throttle for polling the peer's epoch word while no sync is in flight —
/// it only changes around faults, so the hot loops should not pay a 60 ns
/// uncacheable load for it every progress beat.
constexpr Picoseconds kEpochInterval = Picoseconds::from_us(2.0);
/// Consecutive out-of-order (future-seq) receptions before the receive side
/// concludes it missed a sync and initiates one itself.
constexpr int kGapSyncThreshold = 64;
/// Cap on the per-endpoint diagnostics event log (trace export).
constexpr std::size_t kMaxEvents = 4096;

/// Epoch control word: low 32 bits epoch, bit 32 "sync in progress".
constexpr std::uint64_t kEpochMask = 0xffffffffull;
constexpr std::uint64_t kSyncFlag = std::uint64_t{1} << 32;

// The whole rel header rides in the raw marker tag (MsgSlot: the high 32
// bits of the word every receive poll loads anyway), so reliability costs
// zero extra payload bytes and zero extra uncacheable reads per message:
//
//   bit  31     : kTagRelFlag — identifies a rel frame
//   bits 25..29 : sender's seq_bits (config cross-check, 1..16)
//   bit  24     : unused
//   bits 16..23 : sender epoch, low 8 bits (full epoch is in the control
//                 word; 8 bits are ample to reject stale in-flight frames —
//                 the ring is reset on every bump, so live frames can only
//                 ever be a couple of epochs apart)
//   bits  0..15 : wire sequence number, masked to seq_bits
constexpr std::uint32_t kTagRelFlag = 1u << 31;
constexpr std::uint32_t kTagBitsShift = 25;
constexpr std::uint32_t kTagBitsMask = 0x1f;
constexpr std::uint32_t kTagEpochShift = 16;
constexpr std::uint32_t kTagEpochMask = 0xff;
constexpr std::uint32_t kTagSeqMask = 0xffff;

}  // namespace

ReliableEndpoint::ReliableEndpoint(TcDriver& driver, opteron::Core& core,
                                   int peer_chip, RingChannel channel, RelConfig cfg)
    : driver_(driver),
      core_(core),
      peer_(peer_chip),
      channel_(channel),
      cfg_(cfg),
      raw_(driver, core, peer_chip, channel),
      tx_mutex_(core.engine()),
      rx_mutex_(core.engine()) {
  TCC_ASSERT(cfg_.seq_bits >= 2 && cfg_.seq_bits <= 16,
             "seq_bits out of range (the wire seq lives in 16 tag bits)");
  TCC_ASSERT(cfg_.window >= 1 &&
                 cfg_.window < (std::uint64_t{1} << (cfg_.seq_bits - 1)),
             "window must stay below 2^(seq_bits-1) for unambiguous deltas");
  const AddrRange rx_ring = driver.ring(driver.chip(), peer_chip, channel);
  const AddrRange tx_ring = driver.ring(peer_chip, driver.chip(), channel);
  ack_in_ = rx_ring.base + kRelAckOffset;
  epoch_in_ = rx_ring.base + kRelEpochOffset;
  ack_out_ = tx_ring.base + kRelAckOffset;
  epoch_out_ = tx_ring.base + kRelEpochOffset;
  last_tx_progress_ = core.engine().now();
}

ReliableEndpoint::~ReliableEndpoint() {
  *alive_ = false;
  (void)core_.engine().cancel(ack_timer_);
}

std::uint32_t ReliableEndpoint::make_tag(std::uint64_t seq) const {
  return kTagRelFlag |
         (static_cast<std::uint32_t>(cfg_.seq_bits) << kTagBitsShift) |
         (static_cast<std::uint32_t>(local_epoch_ & kTagEpochMask)
          << kTagEpochShift) |
         static_cast<std::uint32_t>(seq & seq_mask() & kTagSeqMask);
}

void ReliableEndpoint::record(RelEvent::Kind kind, std::uint64_t a, std::uint64_t b) {
  if (events_.size() >= kMaxEvents) {
    ++events_dropped_;
    return;
  }
  events_.push_back(RelEvent{kind, core_.engine().now(), a, b});
}

sim::Task<bool> ReliableEndpoint::transmit(std::uint64_t seq,
                                           std::span<const std::uint8_t> payload) {
  // Caller holds tx_mutex_. Piggyback the cumulative delivered-count ACK on
  // the same posted path as the data: the raw send ends in an sfence, so the
  // ACK word commits with (ahead of) the message. Capture before suspending
  // — a delivery landing mid-store must not be marked acked unseen. While
  // the delayed-ACK timer is armed and the deficit is small, skip it: the
  // timer publishes off the latency path within kAckDelay anyway, and the
  // peer's window (>= kRelAckThreshold deep) is in no danger meanwhile.
  if (delivered_ != acked_out_ &&
      (!ack_timer_armed_ || delivered_ - acked_out_ >= kRelAckThreshold)) {
    const std::uint64_t ack = delivered_;
    Status s = co_await core_.store_u64(ack_out_, ack);
    if (s.ok()) acked_out_ = ack;
  }
  // The header (seq/epoch) travels in the marker tag, not in payload
  // bytes. Bounded raw op: a wedged ring (peer dead, no credits) must not
  // pin the mutex forever. A refused transmit is fine — the message stays
  // in the retransmit buffer; drain_unsent() retries and, if ACKs truly
  // stalled, the epoch sync replays it.
  const Picoseconds give_up = core_.engine().now() + kRawSlice;
  Status s = co_await raw_.send(payload, OrderingMode::kWeaklyOrdered, give_up,
                                make_tag(seq));
  co_return s.ok();
}

sim::Task<bool> ReliableEndpoint::transmit_group(const std::vector<Pending>& run) {
  // Caller holds tx_mutex_. Same piggyback-ACK rule as transmit() — the
  // group's closing sfence commits the ACK word with it.
  if (delivered_ != acked_out_ &&
      (!ack_timer_armed_ || delivered_ - acked_out_ >= kRelAckThreshold)) {
    const std::uint64_t ack = delivered_;
    Status s = co_await core_.store_u64(ack_out_, ack);
    if (s.ok()) acked_out_ = ack;
  }
  // Each record carries its own rel header in its record tag, so the peer's
  // demux sees the same per-message metadata a plain transmit carries; the
  // group-level marker tag stays internal to the raw layer. Tags are
  // composed before the first suspension (the epoch must not move under
  // them mid-build).
  std::vector<MsgEndpoint::PackedItem> items;
  items.reserve(run.size());
  for (const Pending& p : run) {
    items.push_back(MsgEndpoint::PackedItem{p.payload, make_tag(p.seq)});
  }
  const Picoseconds give_up = core_.engine().now() + kRawSlice;
  Status s = co_await raw_.send_packed(items, OrderingMode::kWeaklyOrdered, give_up);
  if (s.ok()) {
    ++stats_.groups_sent;
    TCC_METRIC(rel_metrics().groups_sent.inc());
  }
  co_return s.ok();
}

sim::Task<void> ReliableEndpoint::drain_unsent() {
  while (!sync_pending_ && next_unsent_seq_ < next_send_seq_) {
    // Locate the pending entry (it may have vanished: a forced ACK refresh
    // pops it). The deque can shift while transmit()
    // suspends, so work from copies and re-derive state each round.
    std::size_t idx = 0;
    for (; idx < buffer_.size(); ++idx) {
      if (buffer_[idx].seq == next_unsent_seq_) break;
    }
    if (idx == buffer_.size()) {
      ++next_unsent_seq_;
      continue;
    }
    // A backlog is the throughput regime: collect the longest run of
    // consecutive small unsent messages and hand it to the ring as one
    // packed line-group — one doorbell and ~4x the slot density for tiny
    // payloads. (The send() fast path still transmits a lone message
    // directly, so the latency regime never waits for a group to form.)
    std::vector<Pending> run;
    std::uint64_t region = 0;
    std::uint64_t want = next_unsent_seq_;
    for (std::size_t i = idx; i < buffer_.size(); ++i) {
      const Pending& cand = buffer_[i];
      if (cand.seq != want || cand.payload.size() > kPackEligibleBytes) break;
      // Rel records always carry a tag (the header channel), so each one
      // costs the base + tag framing on top of its payload.
      const std::uint64_t record =
          MsgSlot::kRecordBase + MsgSlot::kRecordTag + cand.payload.size();
      if (region + record > kPackGroupBytes) break;
      region += record;
      run.push_back(cand);
      ++want;
    }
    if (run.size() >= 2) {
      const std::uint64_t last_seq = run.back().seq;
      if (!co_await transmit_group(run)) break;
      next_unsent_seq_ = std::max(next_unsent_seq_, last_seq + 1);
      continue;
    }
    const std::uint64_t seq = buffer_[idx].seq;
    const std::vector<std::uint8_t> payload = buffer_[idx].payload;
    if (!co_await transmit(seq, payload)) break;
    next_unsent_seq_ = std::max(next_unsent_seq_, seq + 1);
  }
}

sim::Task<Status> ReliableEndpoint::send(std::span<const std::uint8_t> payload,
                                         std::optional<Picoseconds> deadline) {
  if (payload.size() > kMaxPayloadBytes) {
    co_return make_error(ErrorCode::kInvalidArgument,
                         "payload exceeds kMaxPayloadBytes");
  }
  std::uint64_t seq = 0;
  bool accepted = false;
  for (;;) {
    if (!accepted && buffer_.size() < cfg_.window) {
      auto g = co_await tx_mutex_.scoped();
      if (buffer_.size() < cfg_.window) {
        seq = next_send_seq_++;
        buffer_.push_back(
            Pending{seq, std::vector<std::uint8_t>(payload.begin(), payload.end()), 0});
        accepted = true;
        ++stats_.sent;
        TCC_METRIC(rel_metrics().sends.inc());
        // Transmit only when every earlier message went out (seq order ==
        // transmission order) and no initiated sync is in flight (our raw
        // tx state is stale until the peer adopts); otherwise buffer-only —
        // the wait loop below / replay carries it.
        if (!sync_pending_ && seq == next_unsent_seq_ &&
            co_await transmit(seq, payload)) {
          next_unsent_seq_ = std::max(next_unsent_seq_, seq + 1);
        }
      }
    }
    // Maintenance AFTER the transmit attempt, not before: on a fresh send
    // the periodic uncacheable loads (peer ACK word, epoch word — ~60 ns
    // each through the NB) would otherwise sit between the caller and the
    // data store whenever the cadence has expired, which is exactly the
    // request/response case (the delivering recv returns without a
    // progress beat, and the app thinks for a while before replying).
    // Running them here overlaps them with the message's flight time; the
    // call still performs every duty before returning, so the per-call
    // cadence the recovery machinery relies on is unchanged.
    co_await progress();
    if (accepted) {
      // Acceptance guarantees delivery, but do not return while
      // the message has never been handed to the ring: the sending
      // coroutine is often the only process driving recovery, and an
      // untransmitted message with nobody pushing it would strand the
      // receiver. This also restores the raw layer's backpressure feel —
      // bulk streams pace themselves by ring credits, not by the window.
      if (next_unsent_seq_ > seq) co_return Status{};
      if (deadline && core_.engine().now() >= *deadline) {
        // Accepted but not yet transmitted (peer blackout): still OK — it
        // stays buffered and the epoch sync replays it.
        co_return Status{};
      }
      if (!sync_pending_ && next_unsent_seq_ < next_send_seq_) {
        auto g = co_await tx_mutex_.scoped();
        co_await drain_unsent();
        if (next_unsent_seq_ > seq) co_return Status{};
      }
    } else if (deadline && core_.engine().now() >= *deadline) {
      ++stats_.backpressure_stalls;
      TCC_METRIC(rel_metrics().backpressure_stalls.inc());
      record(RelEvent::Kind::kBackpressure,
             buffer_.empty() ? 0 : buffer_.front().seq, 0);
      co_return make_error(ErrorCode::kBackpressure,
                           "reliable send window full; peer not acknowledging");
    }
    co_await core_.compute(opteron::kPollLoopOverhead);
  }
}

sim::Task<Status> ReliableEndpoint::send_bytes(std::span<const std::uint8_t> payload,
                                               std::optional<Picoseconds> deadline) {
  std::size_t off = 0;
  do {
    const std::size_t chunk = std::min<std::size_t>(payload.size() - off, kMaxPayloadBytes);
    Status s = co_await send(payload.subspan(off, chunk), deadline);
    if (!s.ok()) co_return s;
    off += chunk;
  } while (off < payload.size());
  co_return Status{};
}

sim::Task<Result<std::vector<std::uint8_t>>> ReliableEndpoint::recv(
    std::optional<Picoseconds> deadline) {
  for (;;) {
    bool want_sync = false;
    {
      auto g = co_await rx_mutex_.scoped();
      // Block inside the raw receive for one slice rather than poll()ing
      // first: within a slice this loop's marker-poll cadence is identical
      // to raw tcmsg (no second marker load, no progress() beat between
      // polls). The slice is SHORT — kProgressInterval, not kRawSlice — so
      // the periodic maintenance loads (peer ACK word, epoch word) run
      // between slices, i.e. while we are waiting anyway and the loads
      // overlap message flight time instead of sitting on the send path:
      // by the time the caller turns around and send()s, its progress
      // throttles are already satisfied.
      Picoseconds slice_end = core_.engine().now() + kProgressInterval;
      if (deadline && *deadline < slice_end) slice_end = *deadline;
      {
        auto r = co_await raw_.recv_tagged(slice_end);
        if (r.ok()) {
          const std::uint32_t tag = r.value().tag;
          std::vector<std::uint8_t>& payload = r.value().bytes;
          if ((tag & kTagRelFlag) != 0 &&
              ((tag >> kTagBitsShift) & kTagBitsMask) ==
                  static_cast<std::uint32_t>(cfg_.seq_bits)) {
            if (((tag >> kTagEpochShift) & kTagEpochMask) !=
                static_cast<std::uint32_t>(local_epoch_ & kTagEpochMask)) {
              ++stats_.stale_epoch_drops;
              TCC_METRIC(rel_metrics().stale_epoch_drops.inc());
              // A stale frame is still a retransmission signal: without
              // this, a receiver fed nothing but stale-epoch packets (CRC
              // storm around a sync) never refreshes its ACK and the sender
              // waits out its full kAckDelay/stall clock.
              co_await note_suppressed();
            } else {
              const std::uint64_t mask = seq_mask();
              const std::uint64_t expected = (delivered_ + 1) & mask;
              const std::uint64_t diff = ((tag & kTagSeqMask) - expected) & mask;
              if (diff == 0) {
                ++delivered_;
                ++stats_.delivered;
                TCC_METRIC(rel_metrics().delivered.inc());
                gap_streak_ = 0;
                suppressed_since_ack_ = 0;
                // ACK publication stays OFF the delivery fast path: the
                // piggyback, the idle edge below, the threshold, and the
                // delayed-ACK timer (for a caller that never recv()s again
                // after the stream's last message) between them bound how
                // long the peer's window stays charged. While a packed
                // burst is still draining out of the raw unpack queue the
                // threshold publish is deferred too — the burst then costs
                // ONE control-block write at its tail instead of one per
                // kRelAckThreshold — but never past kAckBatchLimit.
                arm_ack_timer();
                const std::uint64_t deficit = delivered_ - acked_out_;
                if (deficit >= kAckBatchLimit) {
                  co_await publish_ack();
                } else if (deficit >= kRelAckThreshold) {
                  if (raw_.unpacked_pending() == 0) {
                    co_await publish_ack();
                  } else {
                    ++stats_.ack_deferrals;
                    TCC_METRIC(rel_metrics().ack_batch_deferred.inc());
                  }
                }
                co_return std::move(payload);
              }
              if (diff > (mask >> 1)) {
                // Behind the cursor: a replay raced the original delivery.
                ++stats_.duplicates_dropped;
                TCC_METRIC(rel_metrics().duplicates_dropped.inc());
                // The peer replayed, so our previous ACK publish may have
                // died on a dead link even though acked_out_ claims it went
                // out — count toward the refresh opportunity.
                co_await note_suppressed();
              } else {
                // Ahead of the cursor: we missed a sync (our replayed copy
                // is gone, e.g. both-sides reset raced). Count, and after a
                // streak conclude we must resync ourselves.
                ++stats_.gap_drops;
                TCC_METRIC(rel_metrics().gap_drops.inc());
                if (++gap_streak_ >= kGapSyncThreshold) want_sync = true;
              }
            }
          }
          // Untagged / config-mismatched frames are dropped silently —
          // both ends are this code, so this only happens mid-epoch-reset.
        } else if (r.error().code == ErrorCode::kProtocolViolation) {
          // Ring desync (length/CRC garbage from a half-landed message):
          // raw tcmsg cannot heal this; an epoch sync resets the ring.
          want_sync = true;
        } else {
          // Slice expired with the ring drained: the idle edge. Push the
          // rel ACK (reopens the peer's window) and the raw slot ack
          // (returns ring credits — a full-size follow-up message needs
          // every slot back) now rather than waiting for thresholds.
          if (delivered_ != acked_out_) co_await publish_ack();
          (void)co_await raw_.flush_acks();
        }
      }
    }
    // Recovery runs on the beats where nothing was delivered (a delivering
    // iteration returned above — under a continuous deliverable stream the
    // peer is by definition healthy, and any sender duties run in our own
    // send()/flush() loops).
    co_await progress();
    if (want_sync && !sync_pending_) co_await initiate_sync();
    if (deadline && core_.engine().now() >= *deadline) {
      co_return make_error(ErrorCode::kTimeout, "rel recv deadline passed");
    }
    co_await core_.compute(opteron::kPollLoopOverhead);
  }
}

sim::Task<bool> ReliableEndpoint::poll() {
  co_await progress();
  auto g = co_await rx_mutex_.scoped();
  co_return co_await raw_.poll();
}

sim::Task<Status> ReliableEndpoint::flush(std::optional<Picoseconds> deadline) {
  for (;;) {
    co_await progress();
    if (buffer_.empty()) co_return Status{};
    if (deadline && core_.engine().now() >= *deadline) {
      co_return make_error(ErrorCode::kTimeout, "rel flush deadline passed");
    }
    co_await core_.compute(opteron::kPollLoopOverhead);
  }
}

sim::Task<void> ReliableEndpoint::refresh_acks() {
  auto v = co_await core_.load_u64(ack_in_);
  if (!v.ok()) co_return;
  if (v.value() > peer_delivered_) {
    peer_delivered_ = v.value();
    last_tx_progress_ = core_.engine().now();
    stall_strikes_ = 0;
    while (!buffer_.empty() && buffer_.front().seq <= peer_delivered_) {
      buffer_.pop_front();
      ++stats_.acked;
      TCC_METRIC(rel_metrics().acked.inc());
    }
    // An acked seq was by definition transmitted.
    next_unsent_seq_ = std::max(next_unsent_seq_, peer_delivered_ + 1);
  }
}

sim::Task<void> ReliableEndpoint::progress() {
  const Picoseconds now = core_.engine().now();
  if (last_progress_check_ != Picoseconds::zero() &&
      now - last_progress_check_ < kProgressInterval) {
    co_return;
  }
  last_progress_check_ = now;

  // The ACK word only matters with sends outstanding — a quiet transmit
  // side skips the uncacheable load entirely (it is most of what a tight
  // recv/poll loop would otherwise pay per beat). Even with sends
  // outstanding, the load runs on a cadence: eagerly under pressure (window
  // half full, or untransmitted backlog waiting on ring credits), else at
  // kAckRefreshInterval — fast enough to keep the stall clock honest, slow
  // enough that a request/response loop does not pay 60 ns per message for
  // bookkeeping that can wait a beat.
  if (!buffer_.empty() || next_unsent_seq_ < next_send_seq_) {
    const bool pressure = buffer_.size() >= cfg_.window / 2 ||
                          next_unsent_seq_ < next_send_seq_;
    if (pressure || last_ack_refresh_ == Picoseconds::zero() ||
        now - last_ack_refresh_ >= kAckRefreshInterval) {
      last_ack_refresh_ = now;
      co_await refresh_acks();
      // Push any unsent backlog into the ring as credits return.
      if (!sync_pending_ && next_unsent_seq_ < next_send_seq_) {
        auto g = co_await tx_mutex_.scoped();
        co_await drain_unsent();
      }
    }
  }

  // The peer's epoch word only changes around faults; poll it on its own,
  // longer throttle — except while a handshake is in flight, when it is the
  // signal everything waits on.
  if (sync_pending_ || last_epoch_check_ == Picoseconds::zero() ||
      now - last_epoch_check_ >= kEpochInterval) {
    last_epoch_check_ = now;
    auto w = co_await core_.load_u64(epoch_in_);
    if (w.ok()) {
      const std::uint64_t peer_epoch = w.value() & kEpochMask;
      peer_epoch_seen_ = std::max(peer_epoch_seen_, peer_epoch);
      if (peer_epoch > local_epoch_) {
        co_await adopt_epoch(peer_epoch);
        co_return;
      }
      if (sync_pending_ && sync_armed_ && peer_epoch == local_epoch_) {
        co_await complete_sync();
        co_return;
      }
    }
  }

  // Keepalive rejoin edge: the driver resurrected a dead peer — its rings
  // (and ours) may hold debris from before the blackout; resync.
  const bool alive = driver_.peer_alive(peer_);
  const bool rejoin_edge = !prev_peer_alive_ && alive;
  prev_peer_alive_ = alive;
  if (rejoin_edge && !sync_pending_) {
    co_await initiate_sync();
    co_return;
  }

  // ACK stall: messages outstanding and the cumulative ACK has not moved
  // for stall_timeout — the deadline-driven retransmit trigger. First
  // strikes resend the window in place (go-back-N, needs no cooperation:
  // the receiver drops duplicates and republishes its cumulative ACK, which
  // also recovers a lost ACK word). Only after stall_sync_strikes fruitless
  // resends escalate to an epoch sync — a resend cannot fill the hole a
  // lost posted write leaves in the raw ring, only a ring reset can. The
  // escalation must stay rare: a sync handshake needs the peer to respond,
  // and syncing against a peer that is merely slow to ack (e.g. blocked in
  // its own send) can deadlock a ring of blocked senders.
  if (!buffer_.empty()) {
    if (!sync_pending_ && now - last_tx_progress_ > cfg_.stall_timeout) {
      if (stall_strikes_ >= cfg_.stall_sync_strikes) {
        stall_strikes_ = 0;
        co_await initiate_sync();
        co_return;
      }
      auto g = co_await tx_mutex_.scoped();
      if (!sync_pending_ && !buffer_.empty() &&
          core_.engine().now() - last_tx_progress_ > cfg_.stall_timeout) {
        ++stall_strikes_;
        co_await resend_window();
      }
      co_return;
    }
  } else {
    last_tx_progress_ = now;
    stall_strikes_ = 0;
  }

  // Republish the epoch word while syncing: the publish is a posted write
  // and dies silently on a dead link, so keep beating until the echo.
  if (sync_pending_ && sync_armed_) co_await publish_epoch();
}

sim::Task<void> ReliableEndpoint::initiate_sync() {
  if (sync_pending_) co_return;
  // State flips before any suspension so concurrent progress() calls cannot
  // double-initiate or complete against the pre-bump epoch.
  sync_pending_ = true;
  sync_armed_ = false;
  local_epoch_ = std::max(local_epoch_, peer_epoch_seen_) + 1;
  const std::uint64_t target = local_epoch_;
  ++stats_.epoch_bumps;
  TCC_METRIC(rel_metrics().epoch_bumps.inc());
  record(RelEvent::Kind::kEpochBump, target, 1);
  TCC_INFO("tcrel", "chip %d -> peer %d: initiating epoch %llu sync",
           driver_.chip(), peer_, static_cast<unsigned long long>(target));

  // Let in-flight raw stores from the old epoch land before wiping the ring.
  co_await core_.engine().delay(kDrainDelay);
  if (!sync_pending_ || local_epoch_ != target) co_return;  // superseded

  {
    auto g = co_await rx_mutex_.scoped();
    if (!sync_pending_ || local_epoch_ != target) co_return;  // superseded
    (void)co_await raw_.reset_rx();
    gap_streak_ = 0;
  }
  if (!sync_pending_ || local_epoch_ != target) co_return;
  sync_armed_ = true;
  co_await publish_epoch();
  last_tx_progress_ = core_.engine().now();  // restart the stall clock
}

sim::Task<void> ReliableEndpoint::adopt_epoch(std::uint64_t epoch) {
  auto grx = co_await rx_mutex_.scoped();
  auto gtx = co_await tx_mutex_.scoped();
  if (epoch <= local_epoch_) co_return;  // raced a concurrent adopt/initiate
  // The initiator reset its rx ring before publishing `epoch`, so our tx
  // cursors can restart at a fresh ring; our rx reset mirrors it, and our
  // echo publish (ordered after the reset on the posted path) tells the
  // initiator it may replay.
  (void)co_await raw_.reset_rx();
  raw_.reset_tx();
  local_epoch_ = epoch;
  sync_pending_ = false;
  sync_armed_ = false;
  gap_streak_ = 0;
  ++stats_.epoch_bumps;
  TCC_METRIC(rel_metrics().epoch_bumps.inc());
  record(RelEvent::Kind::kEpochBump, epoch, 0);
  TCC_INFO("tcrel", "chip %d -> peer %d: adopting epoch %llu",
           driver_.chip(), peer_, static_cast<unsigned long long>(epoch));
  co_await publish_epoch();
  co_await replay_unacked();  // tx mutex still held
}

sim::Task<void> ReliableEndpoint::complete_sync() {
  auto gtx = co_await tx_mutex_.scoped();
  if (!sync_pending_) co_return;  // raced a concurrent completion/adoption
  // Peer echoed our epoch: it has reset the ring we transmit into.
  raw_.reset_tx();
  sync_pending_ = false;
  sync_armed_ = false;
  co_await publish_epoch();  // clear the sync flag for diagnostics
  co_await replay_unacked();  // tx mutex still held
}

sim::Task<void> ReliableEndpoint::replay_unacked() {
  // Caller holds tx_mutex_; the epoch handshake just completed, so both raw
  // ring directions are fresh. Everything unacked goes out again, in seq
  // order, via the drain path (a full-size message can exceed the fresh ring's credits in
  // one go; the drain stops at the first refusal and progress() resumes it).
  for (Pending& p : buffer_) {
    ++p.retransmits;
    ++stats_.retransmits;
    TCC_METRIC(rel_metrics().retransmits.inc());
    record(RelEvent::Kind::kRetransmit, p.seq, local_epoch_);
  }
  next_unsent_seq_ = buffer_.empty() ? next_send_seq_ : buffer_.front().seq;
  co_await drain_unsent();
  last_tx_progress_ = core_.engine().now();
  stall_strikes_ = 0;
}

sim::Task<void> ReliableEndpoint::resend_window() {
  // Caller holds tx_mutex_. Go-back-N on an ACK stall: rewind the unsent
  // cursor to the oldest unacked message and push the window out again.
  // Entries at/past next_unsent_seq_ were never handed to the ring — they
  // drain as first transmissions, not retransmits.
  for (Pending& p : buffer_) {
    if (p.seq >= next_unsent_seq_) break;
    ++p.retransmits;
    ++stats_.retransmits;
    TCC_METRIC(rel_metrics().retransmits.inc());
    record(RelEvent::Kind::kRetransmit, p.seq, local_epoch_);
  }
  if (!buffer_.empty()) {
    next_unsent_seq_ = std::min(next_unsent_seq_, buffer_.front().seq);
  }
  co_await drain_unsent();
  last_tx_progress_ = core_.engine().now();
}

void ReliableEndpoint::arm_ack_timer() {
  // Delayed ACK: a one-shot engine task that publishes the cumulative ACK if
  // nothing else (piggyback, idle-edge push, threshold) has within
  // kAckDelay. Arming is a host-side operation, so the delivery fast
  // path pays nothing; the firing runs at an idle instant off every latency
  // path. The alive token covers an endpoint destroyed before it fires.
  if (ack_timer_armed_) return;
  ack_timer_armed_ = true;
  sim::Engine& eng = core_.engine();
  ack_timer_ = eng.schedule_timer(kAckDelay, [this, &eng, alive = alive_] {
    if (!*alive) return;
    ack_timer_armed_ = false;
    if (delivered_ != acked_out_) {
      eng.spawn_fn([this, alive]() -> sim::Task<void> {
        if (*alive) co_await publish_ack();
      });
    }
  });
}

sim::Task<void> ReliableEndpoint::note_suppressed() {
  // A suppressed (duplicate / stale-epoch) packet proves the peer is
  // retransmitting: our cumulative ACK may never have landed. Republish on
  // the FIRST suppressed packet since the last publish — recovery latency
  // identical to republishing every time — then batch further ones up to
  // kRelAckThreshold, so a CRC-storm flood of duplicates does not pay a
  // control store + sfence per packet.
  ++suppressed_since_ack_;
  const bool first = suppressed_since_ack_ == 1;
  const bool batch = suppressed_since_ack_ >= kRelAckThreshold;
  if (!first && !batch) co_return;
  if (batch) suppressed_since_ack_ = 0;
  acked_out_ = delivered_ + 1;  // poison the cache -> real store
  co_await publish_ack();
}

sim::Task<void> ReliableEndpoint::publish_ack() {
  // Capture before suspending: a delivery that lands mid-publish must not be
  // marked acked without its value ever reaching the wire.
  const std::uint64_t value = delivered_;
  if (value == acked_out_) co_return;
  // acked_out_ may be poisoned past value (forced republish); only a real
  // advance counts as batch size.
  TCC_METRIC({
    if (value > acked_out_) {
      rel_metrics().ack_batch_size.add(static_cast<double>(value - acked_out_));
    }
    rel_metrics().ack_batch_published.inc();
  });
  Status s = co_await core_.store_u64(ack_out_, value);
  if (!s.ok()) co_return;
  (void)co_await core_.sfence();
  acked_out_ = value;
  ++stats_.acks_pushed;
  // The ACK is on the wire by some other path (piggyback, threshold, idle
  // edge): a still-armed delayed-ACK timer has nothing left to do, so
  // cancel it instead of letting it fire as a dead event.
  if (ack_timer_armed_ && delivered_ == acked_out_) {
    (void)core_.engine().cancel(ack_timer_);
    ack_timer_armed_ = false;
  }
}

sim::Task<void> ReliableEndpoint::publish_epoch() {
  // Idempotent state broadcast: derive the word from current state, so a
  // publish that raced an adoption still writes something consistent.
  const std::uint64_t word =
      (local_epoch_ & kEpochMask) | (sync_pending_ ? kSyncFlag : 0);
  Status s = co_await core_.store_u64(epoch_out_, word);
  if (!s.ok()) co_return;
  (void)co_await core_.sfence();
}

sim::Task<void> ReliableEndpoint::pump_process() {
  while (!pump_stop_) {
    co_await progress();
    // Publish any tail ACK the app left behind (deliveries below the
    // threshold with no further recv() to piggyback on) — otherwise the
    // peer's window never drains and its stall detector spins forever.
    if (delivered_ != acked_out_) co_await publish_ack();
    co_await core_.engine().delay(kPumpInterval);
  }
  pump_running_ = false;
}

void ReliableEndpoint::start_pump() {
  if (pump_running_) return;
  pump_running_ = true;
  pump_stop_ = false;
  core_.engine().spawn(pump_process());
}

ReliableLibrary::ReliableLibrary(TcDriver& driver, opteron::Core& core, RelConfig cfg)
    : driver_(driver), core_(core), cfg_(cfg) {}

Result<ReliableEndpoint*> ReliableLibrary::connect(int peer_chip, RingChannel channel) {
  if (!driver_.loaded()) {
    return make_error(ErrorCode::kFailedPrecondition, "driver not loaded");
  }
  if (peer_chip == driver_.chip()) {
    return make_error(ErrorCode::kInvalidArgument, "cannot connect to self");
  }
  auto& per_channel = endpoints_[static_cast<int>(channel)];
  if (per_channel.size() < static_cast<std::size_t>(peer_chip + 1)) {
    per_channel.resize(static_cast<std::size_t>(peer_chip + 1));
  }
  auto& slot = per_channel[static_cast<std::size_t>(peer_chip)];
  if (!slot) {
    slot = std::make_unique<ReliableEndpoint>(driver_, core_, peer_chip, channel, cfg_);
  }
  return slot.get();
}

std::vector<ReliableEndpoint*> ReliableLibrary::open_endpoints() {
  std::vector<ReliableEndpoint*> out;
  for (const auto& per_channel : endpoints_) {
    for (const auto& ep : per_channel) {
      if (ep) out.push_back(ep.get());
    }
  }
  return out;
}

void ReliableLibrary::stop_pumps() {
  for (ReliableEndpoint* ep : open_endpoints()) ep->stop_pump();
}

}  // namespace tcc::cluster
