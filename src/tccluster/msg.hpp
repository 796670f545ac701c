// tcmsg: the user-space message library of §IV.A/§VI, implemented exactly as
// the paper describes and run against the simulated fabric.
//
//  * sending = remote stores into a 4 KB per-endpoint ring buffer,
//  * receiving = polling uncacheable local memory,
//  * flow control = the receiver periodically remote-writes a cumulative
//    "slots consumed" counter into the sender's memory,
//  * ordering = HyperTransport delivers posted writes in order within a VC;
//    Sfence serializes the sender pipeline. Strict mode fences every cache
//    line; weakly-ordered mode fences once per message commit (the two
//    curves of Fig. 6),
//  * one-sided rendezvous puts into a remote shared region (§IV.A).
//
// The network is write-only: nothing here ever loads from a remote address.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "opteron/core.hpp"
#include "tccluster/driver.hpp"

namespace tcc::cluster {

/// The two send mechanisms of Fig. 6.
enum class OrderingMode {
  kStrict,         ///< Sfence after every cache-line store (~2000 MB/s)
  kWeaklyOrdered,  ///< WC buffers flush on overflow; one fence per commit (~2700 MB/s)
};

[[nodiscard]] const char* to_string(OrderingMode m);

/// Per-endpoint counters.
struct MsgStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t credit_stalls = 0;  ///< times send() had to wait for credits
  std::uint64_t timeouts = 0;       ///< deadline expiries in send()/recv()
  std::uint64_t groups_sent = 0;        ///< packed line-groups published
  std::uint64_t groups_received = 0;    ///< packed line-groups decoded
  std::uint64_t messages_packed = 0;    ///< sub-messages that rode in a group
};

/// Slot wire format. EVERY slot begins with an 8-byte marker word: the low
/// 32 bits hold the message sequence number (what the receiver polls on; a
/// sequence whose low half would be zero is skipped by both sides so an
/// empty slot can never match), the high 32 bits carry an opaque per-message
/// application tag that rides for free — the receiver already loads the
/// marker, so a layer above (tcrel) gets a whole header's worth of metadata
/// at zero additional uncacheable reads. The first slot of a message
/// additionally carries length + CRC; the CRC field stores the BITWISE NOT
/// of crc32c(payload), so the len/CRC word of any message — including a
/// zero-length doorbell — is nonzero and a still-unwritten (zero) word can
/// never validate. Marker words only ever contain sender-composed marker
/// values (or zero after the receiver releases the slot), and raw payload
/// bytes can never alias one — the property that makes polling sound.
///
/// Visibility discipline: a slot's marker is written LAST (program order),
/// so in the common case marker-visible implies slot-visible. That is not a
/// guarantee — write-combining may evict a partially filled line and flush
/// the remainder (marker first, by ascending offset) later, and a suspended
/// sender can leave a slot's flush pending while later slots' full lines
/// dispatch ahead of it. The receiver therefore treats a marker as an
/// invitation, not a commit: it additionally waits for every slot marker of
/// the message, a nonzero len/CRC word, and a payload CRC match before
/// consuming, and re-polls (bounded by kSlotSettle) while any of those still
/// look partial. 8-byte aligned words are atomic on the wire, so each
/// individual field is either absent or complete.
struct MsgSlot {
  static constexpr std::uint64_t kMarkerOffset = 0;  // u64: seq low, tag high
  static constexpr std::uint64_t kLenOffset = 8;     // u32, first slot only
  static constexpr std::uint64_t kCrcOffset = 12;    // u32, first slot only
  static constexpr std::uint64_t kHeaderSize = 16;   // first slot overhead
  static constexpr std::uint64_t kMarkerSize = 8;    // later slots overhead
  static constexpr std::uint64_t kFirstPayload = kSlotBytes - kHeaderSize;  // 48
  static constexpr std::uint64_t kNextPayload = kSlotBytes - kMarkerSize;   // 56
  /// Low half of the marker word: the sequence number on the wire.
  static constexpr std::uint64_t kSeqMask = 0xffffffffull;

  // ---- packed line-groups (doorbell coalescing) ---------------------------
  // A GROUP packs several small messages into one slot-level message so they
  // share a single sequence number, a single validation pass, and a SINGLE
  // marker word — the doorbell. Group slot layout is denser than a plain
  // message's: only the first slot carries the marker/len/CRC header; every
  // later slot is a full 64 bytes of region, so an 8-byte message stops
  // paying a whole slot. The sender writes the region body FIRST and the
  // first slot's marker word LAST: the WC unit dispatches full lines on
  // completion and drains the rest in allocation order, so on the in-order
  // posted channel the doorbell is always the final write of the group —
  // doorbell-visible implies region-visible even across WC evictions. The
  // inverted-CRC len word (kPackedLenFlag set) and the kSlotSettle re-poll
  // discipline from PR 4 still guard the fault-injected case where the
  // region was corrupted in flight.
  //
  // The region is a run of records: a u16 header (low 12 bits = payload
  // length, bit 15 = "u32 tag follows", bits 12-14 reserved zero), the
  // optional tag, then the payload. Untagged records cost 2 bytes; tagged
  // ones (tcrel's header channel) cost 6 — per-record tags keep the
  // marker-tag metadata channel working per sub-message even though the
  // group's own marker tag is spent.
  static constexpr std::uint32_t kPackedLenFlag = 0x80000000u;
  static constexpr std::uint32_t kLenMask = 0x7fffffffu;
  static constexpr std::uint64_t kGroupNextPayload = kSlotBytes;  // 64
  static constexpr std::uint32_t kRecordBase = 2;    // u16 header
  static constexpr std::uint32_t kRecordTag = 4;     // optional u32 tag
  static constexpr std::uint16_t kRecordLenMask = 0x0fff;
  static constexpr std::uint16_t kRecordTagFlag = 0x8000;
  static constexpr std::uint16_t kRecordReserved = 0x7000;  // must be zero

  /// Region bytes one record occupies.
  static constexpr std::uint32_t record_bytes(std::uint32_t tag, std::uint32_t len) {
    return kRecordBase + (tag != 0 ? kRecordTag : 0) + len;
  }
};

/// Largest single message: 48 bytes in the first slot, 56 in each of the
/// remaining 62 slots.
inline constexpr std::uint32_t kMaxMessageBytes = static_cast<std::uint32_t>(
    MsgSlot::kFirstPayload + (kDataSlots - 1) * MsgSlot::kNextPayload);

/// How many consumed slots accumulate before the receiver pushes an ack.
inline constexpr std::uint64_t kAckThreshold = 16;

/// How long the receiver keeps re-polling a message whose slots look
/// partially visible (markers present but CRC/len not yet valid) before
/// concluding the ring is corrupt. Generous: even a max-size message's WC
/// flush completes within the sender's closing sfence, microseconds after
/// the first marker lands. Kept below tcrel's stall_timeout so a genuinely
/// corrupt ring surfaces as kProtocolViolation (receiver-initiated epoch
/// sync) before the sender's ACK-stall strikes would.
inline constexpr Picoseconds kSlotSettle = Picoseconds::from_us(20.0);

class MsgEndpoint {
 public:
  MsgEndpoint(TcDriver& driver, opteron::Core& core, int peer_chip,
              RingChannel channel = RingChannel::kApp);

  MsgEndpoint(const MsgEndpoint&) = delete;
  MsgEndpoint& operator=(const MsgEndpoint&) = delete;

  [[nodiscard]] int peer() const { return peer_; }
  [[nodiscard]] const MsgStats& stats() const { return stats_; }
  [[nodiscard]] opteron::Core& core() { return core_; }

  /// Send one message (<= kMaxMessageBytes). Suspends while the ring lacks
  /// free slots (flow control). With a `deadline` (absolute simulated time),
  /// a credit stall past it returns kTimeout instead of polling forever —
  /// the only way a sender survives a peer that died holding the ring full.
  /// `tag` rides in the high half of every slot marker (see MsgSlot) and
  /// comes back through recv_tagged(); plain recv() ignores it.
  [[nodiscard]] sim::Task<Status> send(
      std::span<const std::uint8_t> payload,
      OrderingMode mode = OrderingMode::kWeaklyOrdered,
      std::optional<Picoseconds> deadline = std::nullopt,
      std::uint32_t tag = 0);

  /// Send arbitrarily large data by segmenting into ring messages.
  [[nodiscard]] sim::Task<Status> send_bytes(std::span<const std::uint8_t> payload,
                                             OrderingMode mode = OrderingMode::kWeaklyOrdered);

  // ---- packed line-groups (see MsgSlot) -----------------------------------

  /// One sub-message of a packed group; `tag` is delivered through
  /// recv_tagged() exactly as a plain send's marker tag would be.
  struct PackedItem {
    std::span<const std::uint8_t> payload;
    std::uint32_t tag = 0;
  };

  /// Largest packed-region a single group can carry (record headers count).
  /// Denser than kMaxMessageBytes: interior group slots have no marker.
  static constexpr std::uint32_t kMaxGroupBytes = static_cast<std::uint32_t>(
      MsgSlot::kFirstPayload + (kDataSlots - 1) * MsgSlot::kGroupNextPayload);

  /// Publish `items` as ONE packed line-group: one sequence number, one
  /// credit acquisition (all-or-nothing), one closing sfence. The receiver
  /// unpacks transparently — each item surfaces as its own recv()/
  /// recv_tagged() result, in order. Refused whole (no partial publish) on
  /// a deadline, so a reliability layer can keep its retransmit accounting
  /// message-exact.
  [[nodiscard]] sim::Task<Status> send_packed(
      std::span<const PackedItem> items,
      OrderingMode mode = OrderingMode::kWeaklyOrdered,
      std::optional<Picoseconds> deadline = std::nullopt);

  /// Blocking receive with payload copy + CRC check. With a `deadline`
  /// (absolute simulated time), returns kTimeout once it passes with no
  /// complete message; the endpoint stays consistent and a later recv()
  /// picks up exactly where this one left off.
  [[nodiscard]] sim::Task<Result<std::vector<std::uint8_t>>> recv(
      std::optional<Picoseconds> deadline = std::nullopt);

  /// Blocking receive that only observes the header and releases the slots
  /// (what a zero-copy consumer or a latency benchmark does). Returns the
  /// payload length. Honours `deadline` like recv().
  [[nodiscard]] sim::Task<Result<std::uint32_t>> recv_discard(
      std::optional<Picoseconds> deadline = std::nullopt);

  /// recv() plus the sender's marker tag — the free metadata channel layers
  /// like tcrel key their headers into. Costs exactly what recv() costs: the
  /// tag arrives in a word the receive path loads anyway.
  struct TaggedMessage {
    std::uint32_t tag = 0;
    std::vector<std::uint8_t> bytes;
  };
  [[nodiscard]] sim::Task<Result<TaggedMessage>> recv_tagged(
      std::optional<Picoseconds> deadline = std::nullopt);

  /// True if a complete message is waiting (single header probe, no block).
  [[nodiscard]] sim::Task<bool> poll();

  /// Sub-messages decoded from a packed group but not yet served — a
  /// host-side check (no loads). A reliability layer uses it as the "burst
  /// still draining" signal for ACK batching.
  [[nodiscard]] std::size_t unpacked_pending() const { return unpacked_.size(); }

  /// One-sided put into a window previously mapped with TcDriver::map_remote
  /// (the rendezvous path of §IV.A). Completion is local: data is in flight,
  /// ordered ahead of any later send() on the same link.
  [[nodiscard]] sim::Task<Status> put(const RemoteWindow& window, std::uint64_t offset,
                                      std::span<const std::uint8_t> payload,
                                      OrderingMode mode = OrderingMode::kWeaklyOrdered);

  /// §IV.A one-sided rendezvous: put the payload directly at its final
  /// destination, then post a small control message ("an additional queue is
  /// used for synchronization and management"). In-order posted delivery
  /// guarantees the data precedes the notice.
  struct RendezvousNotice {
    std::uint64_t offset = 0;  ///< where in the receiver's shared region
    std::uint32_t len = 0;
    std::uint32_t crc = 0;  ///< CRC-32C of the payload
  };
  [[nodiscard]] sim::Task<Status> send_rendezvous(
      const RemoteWindow& window, std::uint64_t offset,
      std::span<const std::uint8_t> payload,
      OrderingMode mode = OrderingMode::kWeaklyOrdered);

  /// Await the next rendezvous notice (does not copy the payload — it is
  /// already in the receiver's shared region).
  [[nodiscard]] sim::Task<Result<RendezvousNotice>> recv_rendezvous();

  /// Convenience: await a notice, copy the payload out of the shared region
  /// and verify its CRC.
  [[nodiscard]] sim::Task<Result<std::vector<std::uint8_t>>> recv_rendezvous_bytes();

  /// Push the ack counter now instead of waiting for kAckThreshold.
  [[nodiscard]] sim::Task<Status> flush_acks();

  // ---- epoch reset hooks (tcrel, reliable.hpp) -----------------------------
  // Raw tcmsg has no retransmit: a message lost mid-ring leaves the receive
  // cursor stuck forever. The reliability layer heals that by resetting the
  // ring transport state on an epoch bump; these two hooks are the whole
  // raw-layer surface it needs.

  /// Receive-side reset: zero every data-slot marker of the local RX ring,
  /// rewind the receive cursors, and remote-publish a zero slots-consumed
  /// ack. Any message content still in the ring is dropped (the reliable
  /// layer replays it from the sender's retransmit buffer).
  [[nodiscard]] sim::Task<Status> reset_rx();

  /// Transmit-side reset: rewind the send cursors to a fresh ring. Only
  /// valid once the peer has performed the matching reset_rx() — the
  /// reliable layer's epoch handshake guarantees that ordering.
  void reset_tx();

 private:
  [[nodiscard]] PhysAddr tx_slot_addr(std::uint64_t logical_slot) const;
  [[nodiscard]] PhysAddr rx_slot_addr(std::uint64_t logical_slot) const;

  /// Slot-level send shared by send() and the packed paths; `packed` sets
  /// MsgSlot::kPackedLenFlag in the length word.
  [[nodiscard]] sim::Task<Status> send_frame(std::span<const std::uint8_t> payload,
                                             OrderingMode mode,
                                             std::optional<Picoseconds> deadline,
                                             std::uint32_t tag, bool packed);

  /// Pop the head of the unpack queue into the caller's buffers.
  std::uint32_t serve_unpacked(std::vector<std::uint8_t>* copy_out,
                               std::uint32_t* tag_out);

  /// Store a byte range with the chosen ordering (per-line fences if strict).
  [[nodiscard]] sim::Task<Status> ordered_store(PhysAddr addr,
                                                std::span<const std::uint8_t> bytes,
                                                OrderingMode mode);

  /// Wait until `slots` transmit slots are free (or `deadline` passes).
  [[nodiscard]] sim::Task<Status> acquire_credits(std::uint64_t slots,
                                                  std::optional<Picoseconds> deadline);

  /// Common receive path; `copy_out` nullptr = discard, `tag_out` nullptr =
  /// drop the marker tag.
  [[nodiscard]] sim::Task<Result<std::uint32_t>> recv_impl(
      std::vector<std::uint8_t>* copy_out, std::optional<Picoseconds> deadline,
      std::uint32_t* tag_out = nullptr);

  TcDriver& driver_;
  opteron::Core& core_;
  int peer_;
  RingChannel channel_;

  AddrRange tx_ring_;   // remote: ring(peer, self)
  AddrRange rx_ring_;   // local:  ring(self, peer)
  PhysAddr tx_ack_;     // local:  rx_ring_.control — peer writes cumulative acks
  PhysAddr rx_ack_;     // remote: tx_ring_.control — we write cumulative acks

  std::uint64_t send_seq_ = 1;  // marker 0 means "empty slot"
  std::uint64_t send_slots_ = 0;
  std::uint64_t acked_slots_cache_ = 0;

  std::uint64_t recv_seq_ = 1;
  std::uint64_t recv_slots_ = 0;
  std::uint64_t acked_out_ = 0;

  /// Partial-visibility settle clock: when the message at recv_seq_ first
  /// looked incomplete past its marker (zero = not waiting). Persists across
  /// recv calls — the reliable layer polls in sub-microsecond slices, far
  /// shorter than kSlotSettle — and is cleared by the epoch reset hooks so a
  /// pre-reset timestamp can never expire a slot of the new epoch.
  Picoseconds settle_since_ = Picoseconds::zero();
  std::uint64_t settle_seq_ = 0;

  /// Sub-messages decoded from a packed group but not yet handed to a
  /// caller. Served in order ahead of any ring poll (zero UC loads per
  /// queued message). Dropped by reset_rx() — an undelivered queue entry was
  /// never acked above the raw layer, so a reliability layer replays it.
  std::deque<TaggedMessage> unpacked_;

  MsgStats stats_;
};

/// Per-node library handle: opens endpoints on demand (§VI: "It can open
/// local and remote memory addresses by calling the TCCluster device
/// driver").
class MsgLibrary {
 public:
  MsgLibrary(TcDriver& driver, opteron::Core& core);

  MsgLibrary(const MsgLibrary&) = delete;
  MsgLibrary& operator=(const MsgLibrary&) = delete;

  /// Open (or return the existing) endpoint to `peer_chip` on `channel`.
  [[nodiscard]] Result<MsgEndpoint*> connect(int peer_chip,
                                             RingChannel channel = RingChannel::kApp);

  [[nodiscard]] TcDriver& driver() { return driver_; }
  [[nodiscard]] opteron::Core& core() { return core_; }

 private:
  TcDriver& driver_;
  opteron::Core& core_;
  /// endpoints_[channel][peer]
  std::vector<std::unique_ptr<MsgEndpoint>> endpoints_[kNumChannels];
};

}  // namespace tcc::cluster
