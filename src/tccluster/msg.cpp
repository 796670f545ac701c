#include "tccluster/msg.hpp"

#include <algorithm>
#include <cstring>

#include "ht/crc.hpp"
#include "opteron/timing.hpp"
#include "telemetry/metrics.hpp"

namespace tcc::cluster {

#if TCC_TELEMETRY_ENABLED
namespace {

/// Message-layer accounting aggregated across every endpoint in the process
/// (per-endpoint numbers stay in MsgEndpoint::stats()). ring_occupancy is
/// sampled in slots at each send, after credits are acquired.
struct MsgMetrics {
  telemetry::Counter& sends =
      telemetry::MetricsRegistry::global().counter("tccluster.msg.sends");
  telemetry::Counter& recvs =
      telemetry::MetricsRegistry::global().counter("tccluster.msg.recvs");
  telemetry::Counter& bytes_sent = telemetry::MetricsRegistry::global().counter(
      "tccluster.msg.bytes_sent");
  telemetry::Counter& bytes_received = telemetry::MetricsRegistry::global().counter(
      "tccluster.msg.bytes_received");
  telemetry::Counter& credit_stalls = telemetry::MetricsRegistry::global().counter(
      "tccluster.msg.credit_stalls");
  telemetry::Counter& acks_sent = telemetry::MetricsRegistry::global().counter(
      "tccluster.msg.acks_sent");
  telemetry::Counter& polls =
      telemetry::MetricsRegistry::global().counter("tccluster.msg.polls");
  telemetry::Counter& timeouts =
      telemetry::MetricsRegistry::global().counter("tccluster.msg.timeouts");
  telemetry::Histogram& ring_occupancy = telemetry::MetricsRegistry::global().histogram(
      "tccluster.msg.ring_occupancy");
  // Packed line-groups (doorbell coalescing, see MsgSlot).
  telemetry::Counter& coalesce_groups_sent = telemetry::MetricsRegistry::global().counter(
      "tccluster.msg.coalesce.groups_sent");
  telemetry::Counter& coalesce_groups_received =
      telemetry::MetricsRegistry::global().counter(
          "tccluster.msg.coalesce.groups_received");
  telemetry::Counter& coalesce_packed_msgs = telemetry::MetricsRegistry::global().counter(
      "tccluster.msg.coalesce.packed_msgs");
  telemetry::Histogram& coalesce_group_msgs =
      telemetry::MetricsRegistry::global().histogram(
          "tccluster.msg.coalesce.group_msgs");
};

MsgMetrics& msg_metrics() {
  static MsgMetrics m;
  return m;
}

}  // namespace
#endif  // TCC_TELEMETRY_ENABLED

namespace {

/// Slots needed for a plain message payload of `len` bytes.
std::uint64_t slots_for(std::uint32_t len) {
  if (len <= MsgSlot::kFirstPayload) return 1;
  return 1 + (len - MsgSlot::kFirstPayload + MsgSlot::kNextPayload - 1) /
                 MsgSlot::kNextPayload;
}

/// Slots needed for a packed group region of `len` bytes (dense layout:
/// interior slots are all region, no markers — see MsgSlot).
std::uint64_t slots_for_group(std::uint32_t len) {
  if (len <= MsgSlot::kFirstPayload) return 1;
  return 1 + (len - MsgSlot::kFirstPayload + MsgSlot::kGroupNextPayload - 1) /
                 MsgSlot::kGroupNextPayload;
}

/// Append one record (u16 header, optional u32 tag, payload) to a region.
void append_record(std::vector<std::uint8_t>& region, std::uint32_t tag,
                   std::span<const std::uint8_t> payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  std::uint16_t hdr = static_cast<std::uint16_t>(len & MsgSlot::kRecordLenMask);
  if (tag != 0) hdr |= MsgSlot::kRecordTagFlag;
  const std::size_t base = region.size();
  region.resize(base + MsgSlot::record_bytes(tag, len));
  std::memcpy(region.data() + base, &hdr, 2);
  std::size_t off = base + MsgSlot::kRecordBase;
  if (tag != 0) {
    std::memcpy(region.data() + off, &tag, 4);
    off += MsgSlot::kRecordTag;
  }
  if (len != 0) std::memcpy(region.data() + off, payload.data(), len);
}

/// Parse the record at `data` (with `avail` region bytes left). Returns
/// false on a malformed record: truncated header/tag, nonzero reserved
/// bits, or a payload overrunning the region.
bool parse_record(const std::uint8_t* data, std::size_t avail, std::uint32_t* tag,
                  std::uint32_t* len, std::size_t* consumed) {
  if (avail < MsgSlot::kRecordBase) return false;
  std::uint16_t hdr = 0;
  std::memcpy(&hdr, data, 2);
  if ((hdr & MsgSlot::kRecordReserved) != 0) return false;
  std::size_t off = MsgSlot::kRecordBase;
  *tag = 0;
  if ((hdr & MsgSlot::kRecordTagFlag) != 0) {
    if (avail < off + MsgSlot::kRecordTag) return false;
    std::memcpy(tag, data + off, 4);
    off += MsgSlot::kRecordTag;
    if (*tag == 0) return false;  // the sender never flags a zero tag
  }
  *len = hdr & MsgSlot::kRecordLenMask;
  if (*len > avail - off) return false;
  *consumed = off + *len;
  return true;
}

}  // namespace

const char* to_string(OrderingMode m) {
  switch (m) {
    case OrderingMode::kStrict: return "strict";
    case OrderingMode::kWeaklyOrdered: return "weakly-ordered";
  }
  return "?";
}

MsgEndpoint::MsgEndpoint(TcDriver& driver, opteron::Core& core, int peer_chip,
                         RingChannel channel)
    : driver_(driver), core_(core), peer_(peer_chip), channel_(channel) {
  tx_ring_ = driver_.ring(peer_chip, driver_.chip(), channel);
  rx_ring_ = driver_.ring(driver_.chip(), peer_chip, channel);
  tx_ack_ = rx_ring_.base;  // control block of our RX ring, written by peer
  rx_ack_ = tx_ring_.base;  // control block of the TX ring, written by us
}

// Logical slot -> ring address. Slot 0 is the control block, so data lives in
// physical slots 1..kDataSlots and logical cursors (send_slots_/recv_slots_)
// grow without bound. A message whose slots cross the kDataSlots boundary is
// written high-addresses-first-then-wrap, which is safe because (a) credits
// guarantee the wrapped-onto slots were consumed and marker-zeroed before the
// sender may reuse them, and (b) the receiver's commit point is the LAST
// logical slot's marker — under in-order posted delivery every earlier slot,
// wrapped or not, has landed by then.
PhysAddr MsgEndpoint::tx_slot_addr(std::uint64_t logical_slot) const {
  return tx_ring_.base + kSlotBytes * (1 + logical_slot % kDataSlots);
}

PhysAddr MsgEndpoint::rx_slot_addr(std::uint64_t logical_slot) const {
  return rx_ring_.base + kSlotBytes * (1 + logical_slot % kDataSlots);
}

sim::Task<Status> MsgEndpoint::ordered_store(PhysAddr addr,
                                             std::span<const std::uint8_t> bytes,
                                             OrderingMode mode) {
  // Walk cache-line chunks; strict mode fences after each one (the paper's
  // "after each cache line sized store operation an Sfence instruction is
  // triggered").
  std::size_t done = 0;
  while (done < bytes.size()) {
    const std::uint64_t a = addr.value() + done;
    const std::uint64_t line_end = (a | (kSlotBytes - 1)) + 1;
    const std::size_t chunk =
        std::min<std::size_t>(bytes.size() - done, line_end - a);
    Status s = co_await core_.store_bytes(PhysAddr{a}, bytes.subspan(done, chunk));
    if (!s.ok()) co_return s;
    if (mode == OrderingMode::kStrict) {
      s = co_await core_.sfence();
      if (!s.ok()) co_return s;
    }
    done += chunk;
  }
  co_return Status{};
}

sim::Task<Status> MsgEndpoint::acquire_credits(std::uint64_t slots,
                                               std::optional<Picoseconds> deadline) {
  TCC_ASSERT(slots <= kDataSlots, "message larger than the whole ring");
  bool stalled = false;
  while (send_slots_ + slots - acked_slots_cache_ > kDataSlots) {
    // Refresh the ack counter the peer pushes into our memory.
    auto v = co_await core_.load_u64(tx_ack_);
    if (!v.ok()) co_return v.error();
    acked_slots_cache_ = v.value();
    if (send_slots_ + slots - acked_slots_cache_ <= kDataSlots) break;
    if (deadline.has_value() && core_.engine().now() >= *deadline) {
      ++stats_.timeouts;
      TCC_METRIC(msg_metrics().timeouts.inc());
      co_return make_error(ErrorCode::kTimeout,
                           "send: no ring credits before the deadline");
    }
    if (!stalled) {
      stalled = true;
      ++stats_.credit_stalls;
      TCC_METRIC(msg_metrics().credit_stalls.inc());
    }
    co_await core_.compute(opteron::kPollLoopOverhead);
  }
  co_return Status{};
}

namespace {

/// Advance a message sequence number, skipping values whose low 32 bits are
/// zero — a released slot's marker is 0, so such a sequence could read an
/// empty slot as a message. Sender and receiver apply the same rule, so the
/// cursors stay in lockstep across the wrap.
inline void advance_seq(std::uint64_t& seq) {
  if (((++seq) & MsgSlot::kSeqMask) == 0) ++seq;
}

/// True when a loaded marker word commits `seq` (low-half match; the high
/// half is the application tag and never participates in matching).
inline bool marker_matches(std::uint64_t marker, std::uint64_t seq) {
  return (marker & MsgSlot::kSeqMask) == (seq & MsgSlot::kSeqMask);
}

}  // namespace

sim::Task<Status> MsgEndpoint::send_frame(std::span<const std::uint8_t> payload,
                                          OrderingMode mode,
                                          std::optional<Picoseconds> deadline,
                                          std::uint32_t tag, bool packed) {
  if (payload.size() > (packed ? kMaxGroupBytes : kMaxMessageBytes)) {
    co_return make_error(ErrorCode::kInvalidArgument,
                        "message exceeds kMaxMessageBytes; use send_bytes");
  }
  const auto len = static_cast<std::uint32_t>(payload.size());
  const std::uint64_t slots = packed ? slots_for_group(len) : slots_for(len);
  Status s = co_await acquire_credits(slots, deadline);
  if (!s.ok()) co_return s;
  TCC_METRIC(
      msg_metrics().ring_occupancy.add(send_slots_ + slots - acked_slots_cache_));

  const std::uint64_t head = send_slots_;
  const std::uint32_t crc = ~ht::crc32c(payload);  // inverted: see MsgSlot
  const std::uint32_t wire_len = packed ? (len | MsgSlot::kPackedLenFlag) : len;
  const std::uint64_t marker = (static_cast<std::uint64_t>(tag) << 32) |
                               (send_seq_ & MsgSlot::kSeqMask);

  if (packed) {
    // Dense group layout (see MsgSlot): first slot header + 48 B of region,
    // every later slot a full 64 B of region, and ONE marker word — the
    // doorbell — stored last. The WC unit dispatches full lines as they
    // complete and drains stragglers in allocation order, so on the
    // in-order posted channel the doorbell is the final write of the group.
    const PhysAddr first = tx_slot_addr(head);
    std::size_t off = std::min<std::size_t>(len, MsgSlot::kFirstPayload);
    {
      std::uint8_t slot[kSlotBytes] = {};
      std::memcpy(slot + MsgSlot::kLenOffset, &wire_len, 4);
      std::memcpy(slot + MsgSlot::kCrcOffset, &crc, 4);
      if (off != 0) std::memcpy(slot + MsgSlot::kHeaderSize, payload.data(), off);
      s = co_await ordered_store(
          first + MsgSlot::kMarkerSize,
          std::span<const std::uint8_t>(slot + MsgSlot::kMarkerSize,
                                        MsgSlot::kHeaderSize - MsgSlot::kMarkerSize + off),
          mode);
      if (!s.ok()) co_return s;
    }
    for (std::uint64_t i = 1; i < slots; ++i) {
      const std::size_t chunk =
          std::min<std::size_t>(len - off, MsgSlot::kGroupNextPayload);
      s = co_await ordered_store(tx_slot_addr(head + i), payload.subspan(off, chunk),
                                 mode);
      if (!s.ok()) co_return s;
      off += chunk;
    }
    std::uint8_t doorbell[MsgSlot::kMarkerSize];
    std::memcpy(doorbell, &marker, 8);
    s = co_await ordered_store(first, doorbell, mode);
    if (!s.ok()) co_return s;
  } else {
    // Write slots in ascending order, and within each slot the body BEFORE
    // the marker word, so in the common (no WC eviction) case a visible
    // marker implies a visible slot. In-order posted delivery (§IV.A) makes
    // the LAST slot's marker the commit point on the receiver; the receiver
    // still re-validates (see MsgSlot) because eviction of a partially
    // filled WC line can reorder a slot's fragments around its marker.
    std::size_t off = 0;
    for (std::uint64_t i = 0; i < slots; ++i) {
      std::uint8_t slot[kSlotBytes] = {};
      std::memcpy(slot + MsgSlot::kMarkerOffset, &marker, 8);
      std::size_t data_off;
      std::size_t capacity;
      if (i == 0) {
        std::memcpy(slot + MsgSlot::kLenOffset, &wire_len, 4);
        std::memcpy(slot + MsgSlot::kCrcOffset, &crc, 4);
        data_off = MsgSlot::kHeaderSize;
        capacity = MsgSlot::kFirstPayload;
      } else {
        data_off = MsgSlot::kMarkerSize;
        capacity = MsgSlot::kNextPayload;
      }
      const std::size_t chunk = std::min<std::size_t>(payload.size() - off, capacity);
      if (chunk != 0) {  // doorbells have no payload and a possibly-null data()
        std::memcpy(slot + data_off, payload.data() + off, chunk);
      }
      off += chunk;
      const PhysAddr slot_addr = tx_slot_addr(head + i);
      s = co_await ordered_store(
          slot_addr + MsgSlot::kMarkerSize,
          std::span<const std::uint8_t>(slot + MsgSlot::kMarkerSize,
                                        kSlotBytes - MsgSlot::kMarkerSize),
          mode);
      if (!s.ok()) co_return s;
      s = co_await ordered_store(
          slot_addr, std::span<const std::uint8_t>(slot, MsgSlot::kMarkerSize), mode);
      if (!s.ok()) co_return s;
    }
  }
  s = co_await core_.sfence();  // push the tail out of the WC buffers
  if (!s.ok()) co_return s;

  advance_seq(send_seq_);
  send_slots_ += slots;
  co_return Status{};
}

sim::Task<Status> MsgEndpoint::send(std::span<const std::uint8_t> payload,
                                    OrderingMode mode,
                                    std::optional<Picoseconds> deadline,
                                    std::uint32_t tag) {
  Status s = co_await send_frame(payload, mode, deadline, tag, /*packed=*/false);
  if (!s.ok()) co_return s;
  ++stats_.messages_sent;
  stats_.bytes_sent += payload.size();
  TCC_METRIC(msg_metrics().sends.inc());
  TCC_METRIC(msg_metrics().bytes_sent.inc(payload.size()));
  co_return Status{};
}

sim::Task<Status> MsgEndpoint::send_packed(std::span<const PackedItem> items,
                                           OrderingMode mode,
                                           std::optional<Picoseconds> deadline) {
  if (items.empty()) {
    co_return make_error(ErrorCode::kInvalidArgument, "empty packed group");
  }
  if (items.size() == 1) {
    // A group of one needs no record framing — send it as a plain message
    // (same doorbell count, fewer bytes on the wire).
    co_return co_await send(items[0].payload, mode, deadline, items[0].tag);
  }
  std::size_t region_len = 0;
  for (const PackedItem& it : items) {
    region_len += MsgSlot::record_bytes(it.tag,
                                        static_cast<std::uint32_t>(it.payload.size()));
  }
  if (region_len > kMaxGroupBytes) {
    co_return make_error(ErrorCode::kInvalidArgument,
                         "packed group exceeds kMaxGroupBytes");
  }
  std::vector<std::uint8_t> region;
  region.reserve(region_len);
  std::uint64_t payload_bytes = 0;
  for (const PackedItem& it : items) {
    append_record(region, it.tag, it.payload);
    payload_bytes += it.payload.size();
  }
  Status s = co_await send_frame(region, mode, deadline, /*tag=*/0, /*packed=*/true);
  if (!s.ok()) co_return s;
  ++stats_.groups_sent;
  stats_.messages_sent += items.size();
  stats_.messages_packed += items.size();
  stats_.bytes_sent += payload_bytes;
  TCC_METRIC(msg_metrics().coalesce_groups_sent.inc());
  TCC_METRIC(msg_metrics().coalesce_packed_msgs.inc(items.size()));
  TCC_METRIC(msg_metrics().coalesce_group_msgs.add(
      static_cast<double>(items.size())));
  TCC_METRIC(msg_metrics().sends.inc(items.size()));
  TCC_METRIC(msg_metrics().bytes_sent.inc(payload_bytes));
  co_return Status{};
}

sim::Task<Status> MsgEndpoint::send_bytes(std::span<const std::uint8_t> payload,
                                          OrderingMode mode) {
  std::size_t off = 0;
  while (off < payload.size()) {
    const std::size_t chunk =
        std::min<std::size_t>(payload.size() - off, kMaxMessageBytes);
    Status s = co_await send(payload.subspan(off, chunk), mode);
    if (!s.ok()) co_return s;
    off += chunk;
  }
  co_return Status{};
}

std::uint32_t MsgEndpoint::serve_unpacked(std::vector<std::uint8_t>* copy_out,
                                          std::uint32_t* tag_out) {
  TaggedMessage& m = unpacked_.front();
  const auto len = static_cast<std::uint32_t>(m.bytes.size());
  if (tag_out != nullptr) *tag_out = m.tag;
  if (copy_out != nullptr) *copy_out = std::move(m.bytes);
  unpacked_.pop_front();
  ++stats_.messages_received;
  stats_.bytes_received += len;
  TCC_METRIC(msg_metrics().recvs.inc());
  TCC_METRIC(msg_metrics().bytes_received.inc(len));
  return len;
}

sim::Task<Result<std::uint32_t>> MsgEndpoint::recv_impl(
    std::vector<std::uint8_t>* copy_out, std::optional<Picoseconds> deadline,
    std::uint32_t* tag_out) {
  // Sub-messages already decoded from a packed group are served first —
  // zero uncacheable loads per queued message.
  if (!unpacked_.empty()) co_return serve_unpacked(copy_out, tag_out);

  const PhysAddr header_addr = rx_slot_addr(recv_slots_);
  // Poll the marker word in uncacheable local memory (§VI receive path) at
  // one fixed cadence: a UC load plus kPollLoopOverhead per turn, however
  // long the ring has been idle.
  bool first_miss = true;
  std::uint32_t marker_tag = 0;
  for (;;) {
    auto marker = co_await core_.load_u64(header_addr);
    if (!marker.ok()) co_return marker.error();
    if (marker_matches(marker.value(), recv_seq_)) {
      marker_tag = static_cast<std::uint32_t>(marker.value() >> 32);
      break;
    }
    if (deadline.has_value() && core_.engine().now() >= *deadline) {
      ++stats_.timeouts;
      TCC_METRIC(msg_metrics().timeouts.inc());
      co_return make_error(ErrorCode::kTimeout,
                           "recv: no message before the deadline");
    }
    if (first_miss) {
      // The ring is empty: the sender may be stalled on credits (a max-size
      // message needs every slot). Push any batched acks before waiting, or
      // the pointer exchange deadlocks — the "periodically ... exchange
      // pointer information" rule of §IV.A needs this aperiodic edge.
      first_miss = false;
      if (Status s = co_await flush_acks(); !s.ok()) co_return s.error();
    }
    co_await core_.compute(opteron::kPollLoopOverhead);
  }

  // The first marker is an invitation, not a commit (see MsgSlot): validate
  // the whole message and re-poll while any part still looks unflushed.
  // Normally one pass succeeds — partial visibility needs a WC eviction to
  // have split a slot, and resolves within the sender's closing sfence.
  std::uint32_t len = 0;
  std::uint32_t crc = 0;
  bool packed = false;
  std::vector<std::uint8_t> group;  // packed-region bytes (groups only)
  for (;;) {
    bool settled = true;
    auto lenword = co_await core_.load_u64(header_addr + MsgSlot::kLenOffset);
    if (!lenword.ok()) co_return lenword.error();
    if (lenword.value() == 0) {
      // The len/CRC word of any message is nonzero (inverted CRC), so zero
      // means that word's fragment has not landed yet.
      settled = false;
    } else {
      std::uint32_t len_raw = 0;
      std::memcpy(&len_raw, &lenword.value(), 4);
      packed = (len_raw & MsgSlot::kPackedLenFlag) != 0;
      len = len_raw & MsgSlot::kLenMask;
      crc = ~static_cast<std::uint32_t>(lenword.value() >> 32);
      if (len > (packed ? MsgEndpoint::kMaxGroupBytes : kMaxMessageBytes)) {
        co_return make_error(ErrorCode::kProtocolViolation, "corrupt message length");
      }
      // Every slot's marker must be visible — the tail alone does not prove
      // the middle slots landed: a partially flushed line can linger in a WC
      // buffer while later slots' full lines dispatch ahead of it. A packed
      // group has no interior markers (dense layout) — its doorbell was the
      // group's LAST write on the in-order channel, so doorbell-visible
      // implies region-visible and the CRC below is the whole check.
      const std::uint64_t slots = packed ? slots_for_group(len) : slots_for(len);
      if (!packed) {
        for (std::uint64_t i = 1; i < slots && settled; ++i) {
          auto m = co_await core_.load_u64(rx_slot_addr(recv_slots_ + i));
          if (!m.ok()) co_return m.error();
          if (!marker_matches(m.value(), recv_seq_)) settled = false;
        }
      }
      // A packed group must always be materialized (the records have to be
      // decoded whatever the caller wanted), so its CRC is always checked;
      // a plain discard skips the copy exactly as before.
      std::vector<std::uint8_t>* sink = packed ? &group : copy_out;
      if (settled && sink != nullptr) {
        sink->resize(len);
        std::size_t off = 0;
        for (std::uint64_t i = 0; i < slots; ++i) {
          std::uint64_t data_off;
          std::size_t capacity;
          if (i == 0) {
            data_off = MsgSlot::kHeaderSize;
            capacity = MsgSlot::kFirstPayload;
          } else if (packed) {
            data_off = 0;
            capacity = MsgSlot::kGroupNextPayload;
          } else {
            data_off = MsgSlot::kMarkerSize;
            capacity = MsgSlot::kNextPayload;
          }
          const std::size_t chunk = std::min<std::size_t>(len - off, capacity);
          Status s = co_await core_.load_bytes(rx_slot_addr(recv_slots_ + i) + data_off,
                                               std::span(sink->data() + off, chunk));
          if (!s.ok()) co_return s.error();
          off += chunk;
        }
        // A mismatch here is almost always a payload fragment still in
        // flight behind its marker, not corruption — keep polling.
        if (ht::crc32c(*sink) != crc) settled = false;
      }
    }
    if (settled) break;
    const Picoseconds now = core_.engine().now();
    if (settle_seq_ != recv_seq_ || settle_since_ == Picoseconds::zero()) {
      settle_seq_ = recv_seq_;
      settle_since_ = now;
    } else if (now - settle_since_ >= kSlotSettle) {
      // Permanently half-written (a link died mid-message and will not
      // resend at this layer): the ring is corrupt; only a reset above
      // (tcrel epoch sync) heals it.
      settle_since_ = Picoseconds::zero();
      co_return make_error(ErrorCode::kProtocolViolation,
                           "message never settled; ring corrupt past the marker");
    }
    // recv_slots_/recv_seq_ stay untouched on every early return, so a
    // retry after deadline or recovery re-polls this same message.
    if (deadline.has_value() && now >= *deadline) {
      ++stats_.timeouts;
      TCC_METRIC(msg_metrics().timeouts.inc());
      co_return make_error(ErrorCode::kTimeout,
                           "recv: message tail missing at the deadline");
    }
    co_await core_.compute(opteron::kPollLoopOverhead);
  }
  settle_since_ = Picoseconds::zero();
  const std::uint64_t slots = packed ? slots_for_group(len) : slots_for(len);

  // Decode a packed group BEFORE consuming its slots: the region passed the
  // group CRC, so these bytes are exactly what the sender published — a
  // malformed record run means a corrupt sender, and the cursors stay put
  // (same contract as a settle expiry: only a reset above heals the ring).
  std::deque<TaggedMessage> decoded;
  if (packed) {
    std::size_t off = 0;
    while (off < len) {
      std::uint32_t rtag = 0;
      std::uint32_t rlen = 0;
      std::size_t consumed = 0;
      if (!parse_record(group.data() + off, len - off, &rtag, &rlen, &consumed)) {
        co_return make_error(ErrorCode::kProtocolViolation,
                             "packed group: malformed record");
      }
      const std::size_t data_at = off + consumed - rlen;
      decoded.push_back(TaggedMessage{
          rtag,
          std::vector<std::uint8_t>(group.begin() + static_cast<std::ptrdiff_t>(data_at),
                                    group.begin() + static_cast<std::ptrdiff_t>(data_at + rlen))});
      off += consumed;
    }
    if (decoded.empty()) {
      co_return make_error(ErrorCode::kProtocolViolation, "packed group: no records");
    }
  }

  // Free the slots ("It then has to overwrite the slot to free it", §IV.A):
  // zero every consumed slot's marker word so no stale sequence number can
  // ever satisfy a future poll.
  for (std::uint64_t i = 0; i < slots; ++i) {
    Status s = co_await core_.store_u64(rx_slot_addr(recv_slots_ + i), 0);
    if (!s.ok()) co_return s.error();
  }

  advance_seq(recv_seq_);
  recv_slots_ += slots;

  std::uint32_t served = 0;
  if (packed) {
    ++stats_.groups_received;
    TCC_METRIC(msg_metrics().coalesce_groups_received.inc());
    unpacked_ = std::move(decoded);
    served = serve_unpacked(copy_out, tag_out);
  } else {
    if (tag_out != nullptr) *tag_out = marker_tag;
    served = len;
    ++stats_.messages_received;
    stats_.bytes_received += len;
    TCC_METRIC(msg_metrics().recvs.inc());
    TCC_METRIC(msg_metrics().bytes_received.inc(len));
  }

  // Periodic pointer exchange for flow control (§IV.A).
  if (recv_slots_ - acked_out_ >= kAckThreshold) {
    if (Status s = co_await flush_acks(); !s.ok()) co_return s.error();
  }
  co_return served;
}

sim::Task<Result<std::vector<std::uint8_t>>> MsgEndpoint::recv(
    std::optional<Picoseconds> deadline) {
  std::vector<std::uint8_t> out;
  auto r = co_await recv_impl(&out, deadline);
  if (!r.ok()) co_return r.error();
  co_return out;
}

sim::Task<Result<std::uint32_t>> MsgEndpoint::recv_discard(
    std::optional<Picoseconds> deadline) {
  co_return co_await recv_impl(nullptr, deadline);
}

sim::Task<Result<MsgEndpoint::TaggedMessage>> MsgEndpoint::recv_tagged(
    std::optional<Picoseconds> deadline) {
  TaggedMessage out;
  auto r = co_await recv_impl(&out.bytes, deadline, &out.tag);
  if (!r.ok()) co_return r.error();
  co_return out;
}

sim::Task<bool> MsgEndpoint::poll() {
  TCC_METRIC(msg_metrics().polls.inc());
  // Decoded-but-unserved sub-messages count as waiting (and cost no load).
  if (!unpacked_.empty()) co_return true;
  auto marker = co_await core_.load_u64(rx_slot_addr(recv_slots_));
  co_return marker.ok() && marker_matches(marker.value(), recv_seq_);
}

sim::Task<Status> MsgEndpoint::flush_acks() {
  if (recv_slots_ == acked_out_) co_return Status{};
  Status s = co_await core_.store_u64(rx_ack_, recv_slots_);
  if (!s.ok()) co_return s;
  s = co_await core_.sfence();  // acks must not linger in a WC buffer
  if (!s.ok()) co_return s;
  acked_out_ = recv_slots_;
  ++stats_.acks_sent;
  TCC_METRIC(msg_metrics().acks_sent.inc());
  co_return Status{};
}

sim::Task<Status> MsgEndpoint::reset_rx() {
  // Zero every data-slot marker so no stale sequence number survives into
  // the next epoch (markers are the only words polls trust).
  for (int i = 0; i < kDataSlots; ++i) {
    Status s = co_await core_.store_u64(
        rx_ring_.base + kSlotBytes * static_cast<std::uint64_t>(1 + i), 0);
    if (!s.ok()) co_return s;
  }
  recv_seq_ = 1;
  recv_slots_ = 0;
  acked_out_ = 0;
  // The settle clock must not survive the epoch: a stale timestamp from a
  // message interrupted mid-settle would otherwise charge the FIRST slot of
  // the new epoch with pre-reset waiting time and could trip the kSlotSettle
  // expiry on a perfectly healthy message.
  settle_since_ = Picoseconds::zero();
  settle_seq_ = 0;
  // Sub-messages decoded but never handed up were never acknowledged above
  // the raw layer either — drop them; the reliable layer replays them.
  unpacked_.clear();
  // Republish a zero slots-consumed ack. Ordered ahead of any later epoch
  // publish on the same posted path, so the peer never resumes sending
  // against a stale credit count.
  Status s = co_await core_.store_u64(rx_ack_, 0);
  if (!s.ok()) co_return s;
  co_return co_await core_.sfence();
}

void MsgEndpoint::reset_tx() {
  send_seq_ = 1;
  send_slots_ = 0;
  acked_slots_cache_ = 0;
  // Belt and braces for the settle clock (its home reset is reset_rx): the
  // epoch handshake always pairs the two hooks, and a reset_tx-only caller
  // must not inherit a stale settle timestamp either.
  settle_since_ = Picoseconds::zero();
  settle_seq_ = 0;
}

sim::Task<Status> MsgEndpoint::put(const RemoteWindow& window, std::uint64_t offset,
                                   std::span<const std::uint8_t> payload,
                                   OrderingMode mode) {
  if (window.home_chip() != peer_) {
    co_return make_error(ErrorCode::kInvalidArgument,
                        "window does not belong to this endpoint's peer");
  }
  if (offset + payload.size() > window.range().size) {
    co_return make_error(ErrorCode::kOutOfRange, "put exceeds the mapped window");
  }
  Status s = co_await ordered_store(window.at(offset), payload, mode);
  if (!s.ok()) co_return s;
  if (mode == OrderingMode::kWeaklyOrdered) {
    s = co_await core_.sfence();  // commit
    if (!s.ok()) co_return s;
  }
  stats_.bytes_sent += payload.size();
  co_return Status{};
}

sim::Task<Status> MsgEndpoint::send_rendezvous(const RemoteWindow& window,
                                               std::uint64_t offset,
                                               std::span<const std::uint8_t> payload,
                                               OrderingMode mode) {
  // Data first (ordered ahead of the notice in the posted channel)...
  Status s = co_await put(window, offset, payload, mode);
  if (!s.ok()) co_return s;
  // ...then the control message. The notice carries the offset relative to
  // the receiver's shared region so the receiver can find the data without
  // knowing the sender's window arithmetic.
  const std::uint64_t shared_base =
      driver_.shared_region(peer_).base.value();
  const std::uint64_t abs = window.at(offset).value();
  TCC_ASSERT(abs >= shared_base, "rendezvous windows live in the shared region");
  RendezvousNotice notice;
  notice.offset = abs - shared_base;
  notice.len = static_cast<std::uint32_t>(payload.size());
  notice.crc = ht::crc32c(payload);
  std::uint8_t frame[16];
  std::memcpy(frame, &notice.offset, 8);
  std::memcpy(frame + 8, &notice.len, 4);
  std::memcpy(frame + 12, &notice.crc, 4);
  co_return co_await send(frame, mode);
}

sim::Task<Result<MsgEndpoint::RendezvousNotice>> MsgEndpoint::recv_rendezvous() {
  auto msg = co_await recv();
  if (!msg.ok()) co_return msg.error();
  if (msg.value().size() != 16) {
    co_return make_error(ErrorCode::kProtocolViolation, "malformed rendezvous notice");
  }
  RendezvousNotice notice;
  std::memcpy(&notice.offset, msg.value().data(), 8);
  std::memcpy(&notice.len, msg.value().data() + 8, 4);
  std::memcpy(&notice.crc, msg.value().data() + 12, 4);
  const AddrRange shared = driver_.shared_region(driver_.chip());
  if (notice.offset + notice.len > shared.size) {
    co_return make_error(ErrorCode::kProtocolViolation,
                        "rendezvous notice points outside the shared region");
  }
  co_return notice;
}

sim::Task<Result<std::vector<std::uint8_t>>> MsgEndpoint::recv_rendezvous_bytes() {
  auto notice = co_await recv_rendezvous();
  if (!notice.ok()) co_return notice.error();
  const AddrRange shared = driver_.shared_region(driver_.chip());
  std::vector<std::uint8_t> out(notice.value().len);
  Status s = co_await core_.load_bytes(shared.base + notice.value().offset, out);
  if (!s.ok()) co_return s.error();
  if (ht::crc32c(out) != notice.value().crc) {
    co_return make_error(ErrorCode::kProtocolViolation, "rendezvous payload CRC mismatch");
  }
  co_return out;
}

MsgLibrary::MsgLibrary(TcDriver& driver, opteron::Core& core)
    : driver_(driver), core_(core) {}

Result<MsgEndpoint*> MsgLibrary::connect(int peer_chip, RingChannel channel) {
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
    slot = std::make_unique<MsgEndpoint>(driver_, core_, peer_chip, channel);
  }
  return slot.get();
}

}  // namespace tcc::cluster
