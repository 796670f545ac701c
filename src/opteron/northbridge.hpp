// Opteron northbridge model: address-map routing, IO bridge, response
// matching, and the TCCluster-mode behaviours (§IV.C/§IV.D).
//
// Routing, exactly as the paper describes it: a request address is first
// compared against the DRAM base/limit registers (hit -> home NodeID; if the
// home is this node the request sinks into the local memory controller,
// otherwise the routing table gives the egress link) and then against the
// MMIO base/limit registers, which name the egress link *directly* — the
// property TCCluster exploits by giving every node NodeID 0 and describing
// all remote memory as MMIO.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "ht/link.hpp"
#include "ht/packet.hpp"
#include "opteron/memory_controller.hpp"
#include "opteron/registers.hpp"
#include "opteron/timing.hpp"
#include "sim/bounded.hpp"
#include "sim/engine.hpp"

namespace tcc::opteron {

/// Where a request entered the northbridge.
struct Ingress {
  enum class Kind { kCore, kLink } kind = Kind::kCore;
  int link = -1;  ///< valid when kind == kLink
};

class Northbridge {
 public:
  /// `outbound_depth` is the per-link outbound request queue depth; Fig. 6's
  /// issue-timed artifact series raises it to emulate a deep buffering chain.
  Northbridge(sim::Engine& engine, std::string name, MemoryController& mc,
              int outbound_depth = kNbOutboundDepth);

  Northbridge(const Northbridge&) = delete;
  Northbridge& operator=(const Northbridge&) = delete;

  [[nodiscard]] NorthbridgeRegs& regs() { return regs_; }
  [[nodiscard]] const NorthbridgeRegs& regs() const { return regs_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Attach a link endpoint to port `index`. The northbridge becomes the
  /// endpoint's sink and owns ingress processing for it.
  void attach_link(int index, ht::HtEndpoint& endpoint);
  [[nodiscard]] ht::HtEndpoint* link(int index) const { return links_.at(static_cast<std::size_t>(index)); }

  // -------- core-side interface (used by Core / WC unit) ----------------

  /// Posted write from a core. Suspends while the relevant outbound queue is
  /// full (this is the backpressure Sfence and the WC unit feel). Returns a
  /// config error if the address matches no enabled range.
  [[nodiscard]] sim::Task<Status> core_posted_write(ht::Packet packet);

  /// Uncacheable read of `out.size()` (at most 8) bytes from a core into
  /// `out`: local DRAM reads go to the memory controller; reads into MMIO
  /// space become tagged non-posted requests. Reads into TCCluster MMIO are
  /// rejected (write-only network, §IV.A).
  [[nodiscard]] sim::Task<Status> core_read(PhysAddr addr, std::span<std::uint8_t> out);

  /// Suspend until every outbound queue this core filled has drained into
  /// the link TX FIFOs. Part of the Sfence contract.
  [[nodiscard]] sim::Task<void> drain_outbound();

  /// Emit a broadcast (interrupt). Used by the interrupt-storm test.
  [[nodiscard]] sim::Task<Status> core_broadcast();

  // -------- statistics ---------------------------------------------------

  [[nodiscard]] std::uint64_t requests_forwarded() const { return forwarded_; }
  [[nodiscard]] std::uint64_t requests_sunk() const { return sunk_; }
  [[nodiscard]] std::uint64_t broadcasts_received() const { return irqs_; }
  [[nodiscard]] MemoryController& mc() { return mc_; }

 private:
  /// Routing decision for a request address.
  struct Route {
    enum class Kind { kLocalMemory, kLink, kMasterAbort } kind = Kind::kMasterAbort;
    int link = -1;
    bool non_posted_allowed = true;
  };
  [[nodiscard]] Route route_request(PhysAddr addr) const;

  /// Per-link ingress process: pulls packets delivered by the endpoint sink.
  sim::Task<void> ingress_process(int link_index);
  sim::Task<void> handle_ingress(int link_index, ht::Packet packet);

  /// Per-link egress pump: applies the per-request scheduling gap and pushes
  /// into the endpoint's (bounded) TX FIFO.
  sim::Task<void> egress_process(int link_index);

  /// Send a packet towards `route` (from core or forwarded from a link).
  sim::Task<Status> dispatch(Route route, ht::Packet packet, Ingress from);

  /// Tag allocation for core-issued non-posted requests.
  struct PendingRead {
    bool in_use = false;
    bool done = false;
    std::vector<std::uint8_t> data;
    std::unique_ptr<sim::Trigger> ready;
  };
  sim::Task<int> alloc_tag();
  void free_tag(int tag);

  sim::Engine& engine_;
  std::string name_;
  MemoryController& mc_;
  NorthbridgeRegs regs_;

  std::array<ht::HtEndpoint*, kMaxLinks> links_{};
  std::vector<std::unique_ptr<sim::BoundedChannel<ht::Packet>>> ingress_;
  std::vector<std::unique_ptr<sim::BoundedChannel<ht::Packet>>> outbound_;
  int outbound_depth_;

  std::array<std::unique_ptr<PendingRead>, kResponseTags> pending_;
  int free_tags_ = kResponseTags;
  std::unique_ptr<sim::Trigger> tag_freed_;

  std::uint64_t forwarded_ = 0;
  std::uint64_t sunk_ = 0;
  std::uint64_t irqs_ = 0;
};

}  // namespace tcc::opteron
