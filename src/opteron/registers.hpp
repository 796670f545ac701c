// Northbridge configuration-space registers (the BKDG function 1 subset the
// TCCluster firmware programs: DRAM base/limit, MMIO base/limit, routing
// table, NodeID, and the warm-reset-latched link controls).
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/error.hpp"
#include "common/units.hpp"

namespace tcc::opteron {

/// NodeID register value processors hold out of reset; the BSP's depth-first
/// enumeration uses 7 as the "not yet visited" sentinel (§IV.E).
inline constexpr int kUnassignedNodeId = 7;

/// Number of DRAM / MMIO base-limit register pairs (BKDG F1x40..F1x7C and
/// F1x80..F1xBC: 8 DRAM ranges, 8 MMIO ranges).
inline constexpr int kNumDramRanges = 8;
inline constexpr int kNumMmioRanges = 8;

/// Maximum nodes addressable by the coherent fabric (3-bit NodeID).
inline constexpr int kMaxCoherentNodes = 8;

/// Maximum HT links per Opteron package (§III: up to four).
inline constexpr int kMaxLinks = 4;

/// One DRAM base/limit pair: addresses in `range` are homed at `dst_node`.
struct DramRangeReg {
  bool enabled = false;
  AddrRange range;
  int dst_node = 0;
};

/// One MMIO base/limit pair: addresses in `range` leave the chip through
/// `dst_link` (the "home is always NodeID 0, so the base/limit registers
/// hand out the destination link directly" trick of §IV.C).
struct MmioRangeReg {
  bool enabled = false;
  AddrRange range;
  int dst_link = 0;
  bool non_posted_allowed = true;  ///< cleared on TCCluster ranges
};

/// Per-NodeID routing table entry (BKDG F0x40..F0x5C): which link requests
/// for that node leave on; kSelf means the packet is sunk locally.
struct RouteReg {
  static constexpr int kSelf = -1;
  int request_link = kSelf;
  int response_link = kSelf;
  int broadcast_links = 0;  ///< bitmask of links to replicate broadcasts onto
};

/// The register file of one northbridge.
struct NorthbridgeRegs {
  int node_id = kUnassignedNodeId;

  std::array<DramRangeReg, kNumDramRanges> dram{};
  std::array<MmioRangeReg, kNumMmioRanges> mmio{};
  std::array<RouteReg, kMaxCoherentNodes> routes{};

  /// TCCluster mode (§IV/§V): set by firmware after forcing links
  /// non-coherent. Changes two behaviours: arriving non-posted requests on
  /// TCCluster links cannot be answered (no response routing — they are
  /// dropped and counted) and broadcasts are never forwarded onto TCCluster
  /// links (the custom-kernel interrupt rule of §VI).
  bool tccluster_mode = false;

  /// Bitmask of links that are TCCluster (non-coherent processor) links.
  std::uint32_t tccluster_links = 0;

  /// Bitmask of links broadcasts may be replicated onto (coherent fabric
  /// within a Supernode). Firmware sets this during coherent enumeration.
  std::uint32_t broadcast_forward_mask = 0;

  /// The custom-kernel rule of §VI: interrupts must never cross the network.
  /// A stock kernel would leave this false — the interrupt-storm failure the
  /// paper's kernel modification exists to prevent.
  bool suppress_remote_broadcasts = true;

  // ---- error/diagnostic counters ----
  std::uint64_t master_aborts = 0;     ///< requests matching no range
  std::uint64_t dropped_reads = 0;     ///< non-posted requests dropped in TCCluster mode
  std::uint64_t dropped_broadcasts = 0;
  std::uint64_t io_bridge_conversions = 0;  ///< cHT<->ncHT conversions

  /// Find the DRAM range containing `a`, if any (last match wins, like MTRRs;
  /// firmware keeps ranges disjoint so order is irrelevant in practice).
  [[nodiscard]] const DramRangeReg* dram_lookup(PhysAddr a) const {
    const DramRangeReg* hit = nullptr;
    for (const auto& r : dram) {
      if (r.enabled && r.range.contains(a)) hit = &r;
    }
    return hit;
  }

  [[nodiscard]] const MmioRangeReg* mmio_lookup(PhysAddr a) const {
    const MmioRangeReg* hit = nullptr;
    for (const auto& r : mmio) {
      if (r.enabled && r.range.contains(a)) hit = &r;
    }
    return hit;
  }

  /// Install the first free DRAM register pair.
  Status add_dram_range(AddrRange range, int dst_node) {
    for (auto& r : dram) {
      if (!r.enabled) {
        r = DramRangeReg{true, range, dst_node};
        return {};
      }
    }
    return make_error(ErrorCode::kResourceExhausted, "all 8 DRAM range registers in use");
  }

  Status add_mmio_range(AddrRange range, int dst_link, bool non_posted_allowed) {
    for (auto& r : mmio) {
      if (!r.enabled) {
        r = MmioRangeReg{true, range, dst_link, non_posted_allowed};
        return {};
      }
    }
    return make_error(ErrorCode::kResourceExhausted, "all 8 MMIO range registers in use");
  }

  void clear_ranges() {
    dram.fill(DramRangeReg{});
    mmio.fill(MmioRangeReg{});
  }
};

}  // namespace tcc::opteron
