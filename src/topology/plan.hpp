// Cluster planning: shapes, Supernode composition, the global address map,
// and the contiguous-interval routing tables (§IV.C–§IV.F).
//
// The planner is pure (no simulation dependencies): it turns a ClusterConfig
// into per-chip register programs — DRAM windows, MMIO interval->port
// assignments, coherent NodeIDs and routes, wire lists — that the firmware
// later writes into the simulated chips. Keeping it pure lets the routing
// properties be tested exhaustively on large clusters without simulating
// them.
//
// Routing is dimension-ordered: a packet settles the outermost dimension
// first (Z, then Y, then X), taking the shortest way around each wrapped
// ring with ties broken towards the positive direction. Every hop strictly
// decreases the remaining cyclic distance, which is what makes the interval
// tables loop-free on tori (see docs/ARCHITECTURE.md, "Torus fabric").
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "ht/link.hpp"
#include "ht/link_regs.hpp"

namespace tcc::topology {

/// Cluster shapes supported by the interval-routing solver.
enum class ClusterShape {
  kCable,    // two Supernodes, one external link (the paper's prototype, §V)
  kChain,    // 1-D line
  kRing,     // 1-D ring, shortest-path routing
  kMesh2D,   // 2-D mesh, Y-then-X dimension-order routing
  kTorus2D,  // 2-D torus: mesh + wraparound, shortest path per dimension.
             // Needs up to 8 MMIO intervals per chip (wrapping splits each
             // direction's row/column set into two address runs).
  kTorus3D,  // 3-D torus of Supernodes (nx x ny x nz), Z-then-Y-then-X
             // dimension order. The wrap splits can need up to 9 intervals;
             // overflow spills into spare DRAM base/limit pairs routed via
             // pseudo-NodeIDs (see ChipPlan::dram_routes).
};

[[nodiscard]] const char* to_string(ClusterShape s);

/// Parse a shape name as printed by to_string ("cable", "ring", "torus3d"...).
[[nodiscard]] Result<ClusterShape> shape_from_string(const std::string& name);

/// Logical external port directions on a Supernode. Each dimension d owns
/// the pair (2d, 2d+1) = (negative, positive): X is West/East, Y is
/// North/South, Z is Up/Down.
enum class Direction : std::uint8_t {
  kWest = 0,
  kEast = 1,
  kNorth = 2,
  kSouth = 3,
  kUp = 4,
  kDown = 5,
};
inline constexpr int kNumDirections = 6;

[[nodiscard]] const char* to_string(Direction d);

struct ClusterConfig {
  ClusterShape shape = ClusterShape::kCable;
  int nx = 2;  ///< nodes along X (chain/ring length, mesh width)
  int ny = 1;  ///< mesh height
  int nz = 1;  ///< torus3d depth
  /// Chips per Supernode (1, 2 or 4). A mesh needs >= 2: a single Opteron
  /// has four HT links, and four mesh directions plus the southbridge do
  /// not fit — the very reason §IV.E introduces Supernodes. A 3-D torus
  /// needs 4: six directions plus the southbridge need seven free ports.
  int supernode_size = 1;
  /// Parallel links on a cable cluster (§V: the Tyan board has two HT links
  /// between the sockets "which can be aggregated to a dual link"). The
  /// remote interval is striped across the links at address granularity —
  /// half the remote memory routes out each port. 1..3 (the 4th port is the
  /// southbridge).
  int cable_links = 1;
  std::uint64_t dram_per_chip = 256_MiB;
  std::uint64_t global_base = 4_GiB;  ///< bottom of the contiguous global space
  /// Master seed for the cluster's randomness. build() derives a distinct
  /// fault-stream seed per wire from it, so two links never replay the same
  /// CRC fault sequence, while the whole cluster stays reproducible.
  std::uint64_t seed = 0x7cc;
  ht::LinkMedium external_medium{.length_inches = 24.0, .coax_cable = true};
  ht::LinkMedium internal_medium{.length_inches = 6.0, .coax_cable = false};

  [[nodiscard]] bool is_2d() const {
    return shape == ClusterShape::kMesh2D || shape == ClusterShape::kTorus2D;
  }
  [[nodiscard]] bool is_3d() const { return shape == ClusterShape::kTorus3D; }
  [[nodiscard]] int num_supernodes() const {
    if (is_3d()) return nx * ny * nz;
    return is_2d() ? nx * ny : nx;
  }
  [[nodiscard]] int num_chips() const { return num_supernodes() * supernode_size; }
};

/// A (chip, port) endpoint in the cluster.
struct PortRef {
  int chip = -1;
  int port = -1;
  constexpr bool operator==(const PortRef&) const = default;
};

/// One physical link to instantiate.
struct WireSpec {
  PortRef a;
  PortRef b;
  bool tccluster = false;  ///< external (forced non-coherent) vs internal coherent
  ht::LinkMedium medium;
};

/// One MMIO base/limit register program: interval -> egress port.
struct MmioPlan {
  AddrRange range;
  int port = -1;
};

/// Everything the firmware must program into one chip.
struct ChipPlan {
  int chip = -1;        ///< global chip index
  int supernode = -1;
  int member = -1;      ///< index within the Supernode
  int node_id = 0;      ///< coherent NodeID within the Supernode (BSP == 0)
  bool is_bsp = false;
  AddrRange dram;       ///< this chip's DRAM window

  std::vector<MmioPlan> mmio;  ///< remote intervals, ordered, disjoint

  /// DRAM ranges of the *other* members of this Supernode (programmed so a
  /// TCCluster packet entering on any member reaches the right DIMMs).
  struct PeerDram {
    AddrRange range;
    int node_id;
  };
  std::vector<PeerDram> peer_dram;

  /// Remote intervals that did not fit in the MMIO register file (a 3-D
  /// torus wrap can need up to 9 intervals against 7 or 8 MMIO pairs).
  /// Each spills into a spare DRAM base/limit pair whose dst_node names an
  /// alias in route_to_member — either a real member whose route already
  /// points at the desired egress, or a pseudo-NodeID in
  /// [supernode_size, 7) allocated just to carry the port. The packet is
  /// re-looked-up by address at every hop, so the alias is purely a local
  /// indirection to an egress port.
  struct DramRoute {
    AddrRange range;
    int node_id = -1;  ///< routes[] alias whose request_link is `port`
    int port = -1;     ///< resolved egress port (for pure next_hop eval)
  };
  std::vector<DramRoute> dram_routes;

  /// Supernodes this chip cannot reach after a best-effort route_around.
  /// next_hop() answers kUnavailable for their addresses. Empty on healthy
  /// plans and on strict route_around results.
  std::vector<int> unreachable_supernodes;

  /// Coherent routing table: member NodeID -> egress port (kSelfRoute = us).
  /// Entries at [supernode_size, 7) may carry pseudo-NodeID spill routes.
  static constexpr int kSelfRoute = -1;
  std::array<int, 8> route_to_member{kSelfRoute, kSelfRoute, kSelfRoute, kSelfRoute,
                                     kSelfRoute, kSelfRoute, kSelfRoute, kSelfRoute};

  /// Ports carrying TCCluster (external) links, as a bitmask.
  std::uint32_t tccluster_ports = 0;
  /// Ports carrying coherent intra-Supernode links, as a bitmask.
  std::uint32_t coherent_ports = 0;
  /// Port wired to the southbridge, if this chip hosts it (BSP member).
  std::optional<int> southbridge_port;
};

struct SupernodePlan {
  int index = -1;
  std::vector<int> chips;  ///< global chip indices, member order
  AddrRange range;         ///< combined DRAM of all members
  /// External port assignment: direction -> (chip, port); unused = nullopt.
  std::array<std::optional<PortRef>, kNumDirections> external;
  /// Cable clusters only: the parallel aggregated links (§V), in stripe
  /// order. external[East/West] mirrors entry 0.
  std::vector<PortRef> cable_ports;
};

/// route_around failure policy.
enum class RouteAroundPolicy {
  /// Any unreachable chip fails the whole recomputation with kUnavailable
  /// (the original behaviour — a degraded plan is all-or-nothing).
  kStrict,
  /// Drop unreachable Supernodes from the surviving chips' interval tables
  /// instead of failing: each surviving chip records them in
  /// unreachable_supernodes and next_hop() answers kUnavailable for their
  /// addresses. Only a partition *between survivors* (or a split coherent
  /// fabric inside a Supernode) still fails the call.
  kBestEffort,
};

/// The full cluster plan.
class ClusterPlan {
 public:
  /// Build a plan or explain why the configuration is impossible (port
  /// budget, register-pair budget, shape constraints).
  static Result<ClusterPlan> build(const ClusterConfig& config);

  [[nodiscard]] const ClusterConfig& config() const { return config_; }
  [[nodiscard]] const std::vector<ChipPlan>& chips() const { return chips_; }
  [[nodiscard]] const std::vector<SupernodePlan>& supernodes() const {
    return supernodes_;
  }
  [[nodiscard]] const std::vector<WireSpec>& wires() const { return wires_; }

  /// The contiguous global address space (§IV.D).
  [[nodiscard]] AddrRange global_range() const;

  /// Which Supernode is home to `addr`, or error if outside the space.
  [[nodiscard]] Result<int> supernode_of(PhysAddr addr) const;

  /// Which chip's DRAM window contains `addr`.
  [[nodiscard]] Result<int> chip_of(PhysAddr addr) const;

  /// Grid coordinates of a Supernode: {x, y, z} (unused dimensions are 0).
  [[nodiscard]] std::array<int, 3> supernode_coords(int supernode) const;

  /// Fault domain of a chip: its Supernode's coordinate along the outermost
  /// nontrivial dimension (the z-plane of a 3-D torus, the row of a 2-D
  /// shape, the Supernode index of a 1-D one). Placement layers spread
  /// replicas across domains so one plane cut never takes every copy.
  [[nodiscard]] int fault_domain_of(int chip) const;

  /// Pure next-hop evaluation of the *planned* tables: from `chip`, where
  /// does a request to `addr` go? Used by the property tests to prove
  /// deadlock-free delivery without simulating. Returns the egress port, or
  /// nullopt when the chip sinks the request locally. Answers kUnavailable
  /// when `addr` belongs to a Supernode this chip recorded as unreachable
  /// (best-effort route_around).
  [[nodiscard]] Result<std::optional<int>> next_hop(int chip, PhysAddr addr) const;

  /// Follow next_hop() through the wire list until the packet sinks.
  /// Returns the chips visited (including start and sink); errors out after
  /// `max_hops` to catch routing loops.
  [[nodiscard]] Result<std::vector<int>> trace_route(int chip, PhysAddr addr,
                                                     int max_hops = 256) const;

  /// Hop distance between two supernodes along planned routes (external
  /// links only), for the multi-hop latency bench.
  [[nodiscard]] Result<int> external_hops(int from_supernode, int to_supernode) const;

  /// External wires crossing the narrowest axis bisection of the fabric —
  /// the wire count behind the bisection-bandwidth figure. Multiply by the
  /// negotiated per-link rate to get bytes/s.
  [[nodiscard]] int bisection_wires() const;

  /// Recompute routing with the given wires (indices into wires()) treated
  /// as dead. Returns a degraded plan whose route_to_member tables and MMIO
  /// intervals steer every chip around the failures along shortest surviving
  /// paths — the physical wire list is left intact. Under kStrict, fails
  /// with kUnavailable when the failures partition the cluster (naming the
  /// unreachable chips); under kBestEffort, unreachable Supernodes are
  /// dropped from the surviving tables instead (see RouteAroundPolicy).
  /// Fails with kResourceExhausted when a detour needs more base/limit
  /// pairs than the register budget.
  [[nodiscard]] Result<ClusterPlan> route_around(
      const std::vector<std::size_t>& failed_wires,
      RouteAroundPolicy policy = RouteAroundPolicy::kStrict) const;

 private:
  ClusterPlan() = default;

  ClusterConfig config_;
  std::vector<ChipPlan> chips_;
  std::vector<SupernodePlan> supernodes_;
  std::vector<WireSpec> wires_;
};

}  // namespace tcc::topology
