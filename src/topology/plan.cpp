#include "topology/plan.hpp"

#include <algorithm>
#include <deque>
#include <map>

#include "common/strings.hpp"

namespace tcc::topology {

namespace {

constexpr int kPortsPerChip = 4;  // Opteron: four HT links (§III)
constexpr int kMmioRegisterBudget = 8;
constexpr int kDramRegisterBudget = 8;
// NodeID 7 is the pre-enumeration "unassigned" sentinel (§IV.B); pseudo
// NodeIDs for spill routes stay below it.
constexpr int kMaxRouteAlias = 7;

/// One grid dimension of the shape. Dimension d owns the Direction pair
/// (2d, 2d+1) = (negative, positive); routing settles the HIGHEST dimension
/// first (Z, then Y, then X), which with the row-major Supernode layout
/// (index = x + nx*(y + ny*z)) keeps each direction's target set a small
/// number of contiguous index runs.
struct Dim {
  int size = 1;
  bool wrap = false;
};

struct Dims {
  std::array<Dim, 3> d{};
  int count = 0;
};

Dims dims_of(const ClusterConfig& cfg) {
  Dims out;
  switch (cfg.shape) {
    case ClusterShape::kCable:
      out.d[0] = Dim{2, false};
      out.count = 1;
      break;
    case ClusterShape::kChain:
      out.d[0] = Dim{cfg.nx, false};
      out.count = 1;
      break;
    case ClusterShape::kRing:
      out.d[0] = Dim{cfg.nx, true};
      out.count = 1;
      break;
    case ClusterShape::kMesh2D:
      out.d[0] = Dim{cfg.nx, false};
      out.d[1] = Dim{cfg.ny, false};
      out.count = 2;
      break;
    case ClusterShape::kTorus2D:
      out.d[0] = Dim{cfg.nx, true};
      out.d[1] = Dim{cfg.ny, true};
      out.count = 2;
      break;
    case ClusterShape::kTorus3D:
      out.d[0] = Dim{cfg.nx, true};
      out.d[1] = Dim{cfg.ny, true};
      out.d[2] = Dim{cfg.nz, true};
      out.count = 3;
      break;
  }
  return out;
}

std::array<int, 3> coords_of(const Dims& dims, int s) {
  std::array<int, 3> c{0, 0, 0};
  for (int d = 0; d < dims.count; ++d) {
    c[static_cast<std::size_t>(d)] = s % dims.d[static_cast<std::size_t>(d)].size;
    s /= dims.d[static_cast<std::size_t>(d)].size;
  }
  return c;
}

int index_of(const Dims& dims, std::array<int, 3> c) {
  int s = 0;
  for (int d = dims.count - 1; d >= 0; --d) {
    s = s * dims.d[static_cast<std::size_t>(d)].size + c[static_cast<std::size_t>(d)];
  }
  return s;
}

constexpr Direction negative_dir(int dim) { return static_cast<Direction>(2 * dim); }
constexpr Direction positive_dir(int dim) { return static_cast<Direction>(2 * dim + 1); }

/// Minimal direction along dimension `dim` from coordinate `from` to `to`,
/// or nullopt when the coordinates already agree. On a wrapped dimension the
/// shorter way around wins, ties towards the positive direction; every hop
/// taken this way strictly decreases the remaining cyclic distance, which is
/// the loop-freedom argument for the dimension-ordered tables.
std::optional<Direction> dim_direction(const Dims& dims, int dim, int from, int to) {
  if (from == to) return std::nullopt;
  const Dim& d = dims.d[static_cast<std::size_t>(dim)];
  if (!d.wrap) {
    return to < from ? negative_dir(dim) : positive_dir(dim);
  }
  const int down = ((to - from) % d.size + d.size) % d.size;
  const int up = d.size - down;
  return down <= up ? positive_dir(dim) : negative_dir(dim);
}

/// Directions a Supernode at position `s` needs external ports for, in
/// dimension order (negative before positive, X before Y before Z).
std::vector<Direction> needed_directions(const ClusterConfig& cfg, int s) {
  std::vector<Direction> dirs;
  if (cfg.shape == ClusterShape::kCable) {
    dirs.push_back(s == 0 ? Direction::kEast : Direction::kWest);
    return dirs;
  }
  const Dims dims = dims_of(cfg);
  const auto c = coords_of(dims, s);
  for (int d = 0; d < dims.count; ++d) {
    const Dim& dd = dims.d[static_cast<std::size_t>(d)];
    if (dd.size <= 1) continue;
    if (dd.wrap) {
      dirs.push_back(negative_dir(d));
      dirs.push_back(positive_dir(d));
    } else {
      if (c[static_cast<std::size_t>(d)] > 0) dirs.push_back(negative_dir(d));
      if (c[static_cast<std::size_t>(d)] < dd.size - 1) dirs.push_back(positive_dir(d));
    }
  }
  return dirs;
}

/// SplitMix64 finalizer: spreads a structured key over the full 64-bit space
/// so per-wire fault streams are decorrelated even for adjacent wire indices.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// For Supernode `s`, the egress direction for traffic to Supernode `t`:
/// dimension order, highest (outermost) dimension first.
Direction direction_for(const ClusterConfig& cfg, int s, int t) {
  if (cfg.shape == ClusterShape::kCable) {
    return t < s ? Direction::kWest : Direction::kEast;
  }
  const Dims dims = dims_of(cfg);
  const auto cs = coords_of(dims, s);
  const auto ct = coords_of(dims, t);
  for (int d = dims.count - 1; d >= 0; --d) {
    if (auto dir = dim_direction(dims, d, cs[static_cast<std::size_t>(d)],
                                 ct[static_cast<std::size_t>(d)])) {
      return *dir;
    }
  }
  return Direction::kEast;  // unreachable: t == s
}

/// One resolved routed interval on a specific chip.
struct ChipSegment {
  AddrRange bytes;
  int port = -1;
};

/// Distribute a chip's remote intervals across its MMIO base/limit pairs,
/// spilling overflow into spare DRAM base/limit pairs (§IV.C gives both
/// register files the same base/limit shape; a DRAM pair whose dst_node
/// aliases an egress port routes exactly like an MMIO pair, because every
/// hop re-looks the address up in the receiving chip's own tables).
///
/// Shared by build() and route_around() so healthy and degraded plans obey
/// the same register budgets.
Status assign_chip_ranges(ChipPlan& cp, const std::vector<ChipSegment>& segs, int k) {
  cp.mmio.clear();
  cp.dram_routes.clear();
  // Alias slots [k, 7) belong exclusively to spill routes; reset them so a
  // route_around recomputation starts from a clean file.
  for (int a = k; a < kMaxRouteAlias; ++a) {
    cp.route_to_member[static_cast<std::size_t>(a)] = ChipPlan::kSelfRoute;
  }

  // The BSP chip spends one MMIO register pair on the boot-ROM window; every
  // chip spends one DRAM pair on its own window and one per Supernode peer.
  const int mmio_budget = kMmioRegisterBudget - (cp.is_bsp ? 1 : 0);
  const int dram_budget = kDramRegisterBudget - k;
  const int total = static_cast<int>(segs.size());
  if (total <= mmio_budget) {
    for (const ChipSegment& seg : segs) cp.mmio.push_back(MmioPlan{seg.bytes, seg.port});
    return {};
  }
  const int spill_count = total - mmio_budget;
  if (spill_count > dram_budget) {
    return make_error(
        ErrorCode::kResourceExhausted,
        strprintf("chip %d needs %d routed intervals, but only %d MMIO base/limit "
                  "pairs%s and %d spare DRAM pairs are available",
                  cp.chip, total, mmio_budget,
                  cp.is_bsp ? " (one is the BSP's ROM window)" : "", dram_budget));
  }

  // Pick the spill set: prefer intervals whose egress is an internal
  // coherent port — those reuse a member NodeID as the routes[] alias and
  // cost no pseudo-NodeID — then smaller intervals first.
  std::vector<int> order(segs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  auto spill_key = [&](int i) {
    const ChipSegment& seg = segs[static_cast<std::size_t>(i)];
    const bool internal = ((cp.coherent_ports >> seg.port) & 1u) != 0;
    return std::make_tuple(internal ? 0 : 1, seg.bytes.size, i);
  };
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return spill_key(a) < spill_key(b); });
  std::vector<bool> spilled(segs.size(), false);
  for (int i = 0; i < spill_count; ++i) spilled[static_cast<std::size_t>(order[i])] = true;

  for (std::size_t i = 0; i < segs.size(); ++i) {
    const ChipSegment& seg = segs[i];
    if (!spilled[i]) {
      cp.mmio.push_back(MmioPlan{seg.bytes, seg.port});
      continue;
    }
    // Find a routes[] alias whose request link is the segment's egress: a
    // real member first, then an already-allocated pseudo-NodeID, then a
    // fresh pseudo-NodeID.
    int alias = -1;
    for (int m = 0; m < kMaxRouteAlias; ++m) {
      if (m == cp.node_id) continue;
      if (cp.route_to_member[static_cast<std::size_t>(m)] == seg.port) {
        alias = m;
        break;
      }
    }
    if (alias < 0) {
      for (int a = k; a < kMaxRouteAlias; ++a) {
        if (cp.route_to_member[static_cast<std::size_t>(a)] == ChipPlan::kSelfRoute) {
          alias = a;
          cp.route_to_member[static_cast<std::size_t>(a)] = seg.port;
          break;
        }
      }
    }
    if (alias < 0) {
      return make_error(ErrorCode::kResourceExhausted,
                        strprintf("chip %d: no free pseudo-NodeID for a spilled "
                                  "interval (all %d route entries in use)",
                                  cp.chip, kMaxRouteAlias));
    }
    cp.dram_routes.push_back(ChipPlan::DramRoute{seg.bytes, alias, seg.port});
  }
  return {};
}

}  // namespace

const char* to_string(ClusterShape s) {
  switch (s) {
    case ClusterShape::kCable: return "cable";
    case ClusterShape::kChain: return "chain";
    case ClusterShape::kRing: return "ring";
    case ClusterShape::kMesh2D: return "mesh2d";
    case ClusterShape::kTorus2D: return "torus2d";
    case ClusterShape::kTorus3D: return "torus3d";
  }
  return "?";
}

Result<ClusterShape> shape_from_string(const std::string& name) {
  for (ClusterShape s : {ClusterShape::kCable, ClusterShape::kChain, ClusterShape::kRing,
                         ClusterShape::kMesh2D, ClusterShape::kTorus2D,
                         ClusterShape::kTorus3D}) {
    if (name == to_string(s)) return s;
  }
  return make_error(ErrorCode::kInvalidArgument,
                    strprintf("unknown cluster shape '%s'", name.c_str()));
}

const char* to_string(Direction d) {
  switch (d) {
    case Direction::kWest: return "west";
    case Direction::kEast: return "east";
    case Direction::kNorth: return "north";
    case Direction::kSouth: return "south";
    case Direction::kUp: return "up";
    case Direction::kDown: return "down";
  }
  return "?";
}

Result<ClusterPlan> ClusterPlan::build(const ClusterConfig& config) {
  // ---- validate -----------------------------------------------------------
  if (config.supernode_size != 1 && config.supernode_size != 2 &&
      config.supernode_size != 4) {
    return make_error(ErrorCode::kInvalidArgument,
                      "supernode_size must be 1, 2 or 4");
  }
  if (config.nx < 1 || config.ny < 1 || config.nz < 1) {
    return make_error(ErrorCode::kInvalidArgument, "cluster dimensions must be >= 1");
  }
  if (config.shape == ClusterShape::kCable && config.nx != 2) {
    return make_error(ErrorCode::kInvalidArgument, "a cable cluster has exactly 2 nodes");
  }
  if (!config.is_2d() && !config.is_3d() && config.ny != 1) {
    return make_error(ErrorCode::kInvalidArgument,
                      "ny > 1 requires a 2-D shape (mesh or torus)");
  }
  if (!config.is_3d() && config.nz != 1) {
    return make_error(ErrorCode::kInvalidArgument, "nz > 1 requires the torus3d shape");
  }
  if (config.num_supernodes() < 2) {
    return make_error(ErrorCode::kInvalidArgument, "a cluster needs at least 2 Supernodes");
  }
  {
    const Dims dims = dims_of(config);
    int wide_dims = 0;
    for (int d = 0; d < dims.count; ++d) {
      if (dims.d[static_cast<std::size_t>(d)].size > 1) ++wide_dims;
    }
    if (wide_dims >= 2 && config.supernode_size < 2) {
      return make_error(
          ErrorCode::kConfigConflict,
          "a 2-D mesh/torus needs supernode_size >= 2: one Opteron has four HT links, "
          "and four mesh directions plus the southbridge do not fit (this is why "
          "§IV.E introduces Supernodes)");
    }
    if (wide_dims >= 3 && config.supernode_size < 4) {
      return make_error(
          ErrorCode::kConfigConflict,
          "a 3-D torus needs supernode_size == 4: six directions plus the "
          "southbridge need seven free HT ports, and smaller Supernodes only "
          "have five");
    }
  }
  if (config.dram_per_chip < 1_MiB || config.dram_per_chip % 4096 != 0) {
    return make_error(ErrorCode::kInvalidArgument,
                      "dram_per_chip must be >= 1 MiB and 4 KiB aligned");
  }
  if (config.cable_links < 1 || config.cable_links > 3) {
    return make_error(ErrorCode::kInvalidArgument,
                      "cable_links must be 1..3 (the 4th port is the southbridge)");
  }
  if (config.cable_links > 1 && config.shape != ClusterShape::kCable) {
    return make_error(ErrorCode::kInvalidArgument,
                      "link aggregation is only defined for the cable shape");
  }

  ClusterPlan plan;
  plan.config_ = config;

  const int k = config.supernode_size;
  const int num_sn = config.num_supernodes();
  const Dims dims = dims_of(config);
  const std::uint64_t sn_bytes = static_cast<std::uint64_t>(k) * config.dram_per_chip;

  // ---- chips, Supernodes, internal wiring --------------------------------
  std::vector<int> free_port(static_cast<std::size_t>(config.num_chips()), 0);
  auto alloc_port = [&](int chip) -> Result<int> {
    if (free_port[static_cast<std::size_t>(chip)] >= kPortsPerChip) {
      return make_error(ErrorCode::kResourceExhausted,
                        strprintf("chip %d has no free HT port", chip));
    }
    return free_port[static_cast<std::size_t>(chip)]++;
  };

  for (int s = 0; s < num_sn; ++s) {
    SupernodePlan sn;
    sn.index = s;
    sn.range = AddrRange{PhysAddr{config.global_base + static_cast<std::uint64_t>(s) * sn_bytes},
                         sn_bytes};
    for (int m = 0; m < k; ++m) {
      const int chip = s * k + m;
      sn.chips.push_back(chip);
      ChipPlan cp;
      cp.chip = chip;
      cp.supernode = s;
      cp.member = m;
      cp.node_id = m;   // coherent NodeID within the Supernode
      cp.is_bsp = (m == 0);
      cp.dram = AddrRange{
          PhysAddr{config.global_base + static_cast<std::uint64_t>(chip) * config.dram_per_chip},
          config.dram_per_chip};
      plan.chips_.push_back(std::move(cp));
    }

    // Southbridge on the BSP member, always the first port.
    {
      auto p = alloc_port(sn.chips[0]);
      if (!p.ok()) return p.error();
      plan.chips_[static_cast<std::size_t>(sn.chips[0])].southbridge_port = p.value();
    }

    // Internal coherent links: k=2 one link, k=4 a ring.
    auto wire_internal = [&](int ma, int mb) -> Status {
      const int ca = sn.chips[static_cast<std::size_t>(ma)];
      const int cb = sn.chips[static_cast<std::size_t>(mb)];
      auto pa = alloc_port(ca);
      if (!pa.ok()) return pa.error();
      auto pb = alloc_port(cb);
      if (!pb.ok()) return pb.error();
      plan.wires_.push_back(WireSpec{PortRef{ca, pa.value()}, PortRef{cb, pb.value()},
                                     /*tccluster=*/false, config.internal_medium});
      plan.chips_[static_cast<std::size_t>(ca)].coherent_ports |= 1u << pa.value();
      plan.chips_[static_cast<std::size_t>(cb)].coherent_ports |= 1u << pb.value();
      plan.chips_[static_cast<std::size_t>(ca)].route_to_member[static_cast<std::size_t>(mb)] =
          pa.value();
      plan.chips_[static_cast<std::size_t>(cb)].route_to_member[static_cast<std::size_t>(ma)] =
          pb.value();
      return {};
    };
    if (k == 2) {
      if (Status st = wire_internal(0, 1); !st.ok()) return st.error();
    } else if (k == 4) {
      for (int m = 0; m < 4; ++m) {
        if (Status st = wire_internal(m, (m + 1) % 4); !st.ok()) return st.error();
      }
      // Two-hop members route via the clockwise neighbour.
      for (int m = 0; m < 4; ++m) {
        ChipPlan& cp = plan.chips_[static_cast<std::size_t>(sn.chips[static_cast<std::size_t>(m)])];
        const int two_away = (m + 2) % 4;
        cp.route_to_member[static_cast<std::size_t>(two_away)] =
            cp.route_to_member[static_cast<std::size_t>((m + 1) % 4)];
      }
    }

    // Allocate one external (TCCluster) port on the member with the most
    // free links.
    auto alloc_external = [&](const char* what) -> Result<PortRef> {
      int best = -1;
      for (int m = 0; m < k; ++m) {
        const int chip = sn.chips[static_cast<std::size_t>(m)];
        if (free_port[static_cast<std::size_t>(chip)] >= kPortsPerChip) continue;
        if (best < 0 || free_port[static_cast<std::size_t>(chip)] <
                            free_port[static_cast<std::size_t>(best)]) {
          best = chip;
        }
      }
      if (best < 0) {
        return make_error(ErrorCode::kResourceExhausted,
                          strprintf("Supernode %d cannot host a %s port: all HT "
                                    "links in use",
                                    s, what));
      }
      auto p = alloc_port(best);
      if (!p.ok()) return p.error();
      plan.chips_[static_cast<std::size_t>(best)].tccluster_ports |= 1u << p.value();
      return PortRef{best, p.value()};
    };

    if (config.shape == ClusterShape::kCable) {
      // Cable link aggregation (§V): cable_links parallel ports.
      for (int l = 0; l < config.cable_links; ++l) {
        auto p = alloc_external("cable");
        if (!p.ok()) return p.error();
        sn.cable_ports.push_back(p.value());
      }
      sn.external[static_cast<std::size_t>(s == 0 ? Direction::kEast : Direction::kWest)] =
          sn.cable_ports[0];
    } else {
      for (Direction d : needed_directions(config, s)) {
        auto p = alloc_external(to_string(d));
        if (!p.ok()) return p.error();
        sn.external[static_cast<std::size_t>(d)] = p.value();
      }
    }

    plan.supernodes_.push_back(std::move(sn));
  }

  // ---- external wiring -----------------------------------------------------
  // Generic over dimensions: every Supernode wires its positive direction in
  // each dimension to the neighbour's negative port. On a wrapped dimension
  // of size 2 this produces two parallel wires per pair (one per direction),
  // matching a real double-linked ring.
  auto ext = [&](int s, Direction d) -> const std::optional<PortRef>& {
    return plan.supernodes_[static_cast<std::size_t>(s)].external[static_cast<std::size_t>(d)];
  };
  auto wire_external = [&](int sa, Direction da, int sb, Direction db) -> Status {
    const auto& pa = ext(sa, da);
    const auto& pb = ext(sb, db);
    if (!pa || !pb) {
      return make_error(ErrorCode::kConfigConflict, "missing external port for wiring");
    }
    plan.wires_.push_back(WireSpec{*pa, *pb, /*tccluster=*/true, config.external_medium});
    return {};
  };
  if (config.shape == ClusterShape::kCable) {
    for (int l = 0; l < config.cable_links; ++l) {
      plan.wires_.push_back(WireSpec{plan.supernodes_[0].cable_ports[static_cast<std::size_t>(l)],
                                     plan.supernodes_[1].cable_ports[static_cast<std::size_t>(l)],
                                     /*tccluster=*/true, config.external_medium});
    }
  } else {
    for (int s = 0; s < num_sn; ++s) {
      const auto c = coords_of(dims, s);
      for (int d = 0; d < dims.count; ++d) {
        const Dim& dd = dims.d[static_cast<std::size_t>(d)];
        if (dd.size <= 1) continue;
        if (!dd.wrap && c[static_cast<std::size_t>(d)] + 1 >= dd.size) continue;
        auto cn = c;
        cn[static_cast<std::size_t>(d)] =
            (c[static_cast<std::size_t>(d)] + 1) % dd.size;
        const int t = index_of(dims, cn);
        if (Status st = wire_external(s, positive_dir(d), t, negative_dir(d));
            !st.ok()) {
          return st.error();
        }
      }
    }
  }

  // ---- per-wire fault seeds ------------------------------------------------
  // Key on the wire's physical identity (endpoints), not just its index, so
  // the stream survives unrelated wires being added to the list.
  for (std::size_t i = 0; i < plan.wires_.size(); ++i) {
    WireSpec& w = plan.wires_[i];
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(w.a.chip)) << 40) ^
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(w.a.port)) << 32) ^
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(w.b.chip)) << 8) ^
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(w.b.port)) ^ (i << 16);
    w.medium.fault_seed = mix64(mix64(config.seed) ^ key);
  }

  // ---- per-chip address maps ----------------------------------------------
  for (int s = 0; s < num_sn; ++s) {
    // Group remote Supernodes into contiguous runs sharing one direction.
    // Dimension-ordered direction choice keeps this small: each wrapped
    // dimension contributes at most 3 linear runs, so a 3-D torus needs at
    // most 9 — anything past the MMIO register file spills to DRAM pairs.
    struct Run {
      int first, last;  // inclusive Supernode range
      Direction dir;
    };
    std::vector<Run> runs;
    for (int t = 0; t < num_sn; ++t) {
      if (t == s) continue;
      const Direction d = direction_for(config, s, t);
      if (!runs.empty() && runs.back().last == t - 1 && runs.back().dir == d) {
        runs.back().last = t;
      } else {
        runs.push_back(Run{t, t, d});
      }
    }
    const SupernodePlan& sn = plan.supernodes_[static_cast<std::size_t>(s)];

    // Resolve runs to (byte range, external port) segments. On a cable the
    // single remote run is striped across the aggregated links (§V).
    struct Segment {
      AddrRange bytes;
      PortRef port;
    };
    std::vector<Segment> segments;
    for (const Run& run : runs) {
      const AddrRange bytes{
          PhysAddr{config.global_base + static_cast<std::uint64_t>(run.first) * sn_bytes},
          static_cast<std::uint64_t>(run.last - run.first + 1) * sn_bytes};
      if (config.shape == ClusterShape::kCable && config.cable_links > 1) {
        const auto stripes = static_cast<std::uint64_t>(config.cable_links);
        const std::uint64_t stripe = bytes.size / stripes / 4096 * 4096;
        std::uint64_t off = 0;
        for (std::uint64_t l = 0; l < stripes; ++l) {
          const std::uint64_t len = l + 1 == stripes ? bytes.size - off : stripe;
          segments.push_back(Segment{AddrRange{bytes.base + off, len},
                                     sn.cable_ports[static_cast<std::size_t>(l)]});
          off += len;
        }
      } else if (config.shape == ClusterShape::kCable) {
        segments.push_back(Segment{bytes, sn.cable_ports[0]});
      } else {
        const auto& port = sn.external[static_cast<std::size_t>(run.dir)];
        TCC_ASSERT(port.has_value(), "direction in use but no external port planned");
        segments.push_back(Segment{bytes, *port});
      }
    }

    for (int m = 0; m < k; ++m) {
      ChipPlan& cp = plan.chips_[static_cast<std::size_t>(sn.chips[static_cast<std::size_t>(m)])];

      // Peer DRAM within the Supernode.
      for (int pm = 0; pm < k; ++pm) {
        if (pm == m) continue;
        const ChipPlan& peer =
            plan.chips_[static_cast<std::size_t>(sn.chips[static_cast<std::size_t>(pm)])];
        cp.peer_dram.push_back(ChipPlan::PeerDram{peer.dram, peer.node_id});
      }

      // Egress on the member owning the segment's port, or towards that
      // member over the internal fabric.
      auto resolve = [&](const PortRef& port) {
        if (port.chip == cp.chip) return port.port;
        const int owner_member = plan.chips_[static_cast<std::size_t>(port.chip)].member;
        const int egress = cp.route_to_member[static_cast<std::size_t>(owner_member)];
        TCC_ASSERT(egress >= 0, "no internal route to the port-owning member");
        return egress;
      };
      std::vector<ChipSegment> chip_segments;
      chip_segments.reserve(segments.size());
      for (const Segment& seg : segments) {
        chip_segments.push_back(ChipSegment{seg.bytes, resolve(seg.port)});
      }
      if (Status st = assign_chip_ranges(cp, chip_segments, k); !st.ok()) {
        return st.error();
      }
    }
  }

  return plan;
}

AddrRange ClusterPlan::global_range() const {
  const std::uint64_t total =
      static_cast<std::uint64_t>(config_.num_chips()) * config_.dram_per_chip;
  return AddrRange{PhysAddr{config_.global_base}, total};
}

Result<int> ClusterPlan::supernode_of(PhysAddr addr) const {
  if (!global_range().contains(addr)) {
    return make_error(ErrorCode::kOutOfRange, "address outside the global space");
  }
  const std::uint64_t sn_bytes =
      static_cast<std::uint64_t>(config_.supernode_size) * config_.dram_per_chip;
  return static_cast<int>((addr.value() - config_.global_base) / sn_bytes);
}

Result<int> ClusterPlan::chip_of(PhysAddr addr) const {
  if (!global_range().contains(addr)) {
    return make_error(ErrorCode::kOutOfRange, "address outside the global space");
  }
  return static_cast<int>((addr.value() - config_.global_base) / config_.dram_per_chip);
}

std::array<int, 3> ClusterPlan::supernode_coords(int supernode) const {
  return coords_of(dims_of(config_), supernode);
}

int ClusterPlan::fault_domain_of(int chip) const {
  TCC_ASSERT(chip >= 0 && chip < static_cast<int>(chips_.size()),
             "fault_domain_of: bad chip index");
  int outer_dim = 0;
  for (int d = 2; d >= 1 && outer_dim == 0; --d) {
    for (std::size_t s = 0; s < supernodes_.size(); ++s) {
      if (supernode_coords(static_cast<int>(s))[static_cast<std::size_t>(d)] != 0) {
        outer_dim = d;
        break;
      }
    }
  }
  const int sn = chips_[static_cast<std::size_t>(chip)].supernode;
  return supernode_coords(sn)[static_cast<std::size_t>(outer_dim)];
}

Result<std::optional<int>> ClusterPlan::next_hop(int chip, PhysAddr addr) const {
  if (chip < 0 || chip >= static_cast<int>(chips_.size())) {
    return make_error(ErrorCode::kOutOfRange, "bad chip index");
  }
  const ChipPlan& cp = chips_[static_cast<std::size_t>(chip)];
  if (cp.dram.contains(addr)) return std::optional<int>{};
  for (const auto& peer : cp.peer_dram) {
    if (peer.range.contains(addr)) {
      const int port = cp.route_to_member[static_cast<std::size_t>(peer.node_id)];
      if (port < 0) {
        return make_error(ErrorCode::kConfigConflict, "no route to peer member");
      }
      return std::optional<int>{port};
    }
  }
  for (const auto& dr : cp.dram_routes) {
    if (dr.range.contains(addr)) return std::optional<int>{dr.port};
  }
  for (const auto& m : cp.mmio) {
    if (m.range.contains(addr)) return std::optional<int>{m.port};
  }
  if (!cp.unreachable_supernodes.empty()) {
    if (auto sn = supernode_of(addr); sn.ok()) {
      if (std::find(cp.unreachable_supernodes.begin(), cp.unreachable_supernodes.end(),
                    sn.value()) != cp.unreachable_supernodes.end()) {
        return make_error(ErrorCode::kUnavailable,
                          strprintf("chip %d: Supernode %d is unreachable after "
                                    "route-around",
                                    chip, sn.value()));
      }
    }
  }
  return make_error(ErrorCode::kOutOfRange,
                    strprintf("chip %d: address 0x%llx matches no range", chip,
                              static_cast<unsigned long long>(addr.value())));
}

Result<std::vector<int>> ClusterPlan::trace_route(int chip, PhysAddr addr,
                                                  int max_hops) const {
  // Build the port->peer map once per call; plans are small.
  std::map<std::pair<int, int>, PortRef> peer;
  for (const WireSpec& w : wires_) {
    peer[{w.a.chip, w.a.port}] = w.b;
    peer[{w.b.chip, w.b.port}] = w.a;
  }
  std::vector<int> visited{chip};
  int cur = chip;
  for (int hop = 0; hop < max_hops; ++hop) {
    auto nh = next_hop(cur, addr);
    if (!nh.ok()) return nh.error();
    if (!nh.value().has_value()) return visited;  // sunk
    auto it = peer.find({cur, *nh.value()});
    if (it == peer.end()) {
      return make_error(ErrorCode::kConfigConflict,
                        strprintf("chip %d routes out port %d which is not wired", cur,
                                  *nh.value()));
    }
    cur = it->second.chip;
    visited.push_back(cur);
  }
  return make_error(ErrorCode::kConfigConflict, "routing loop: exceeded max hops");
}

Result<ClusterPlan> ClusterPlan::route_around(
    const std::vector<std::size_t>& failed_wires, RouteAroundPolicy policy) const {
  constexpr int kInf = 1 << 30;
  const int n = static_cast<int>(chips_.size());
  const int num_sn = static_cast<int>(supernodes_.size());
  const int k = config_.supernode_size;
  const bool best_effort = policy == RouteAroundPolicy::kBestEffort;

  std::vector<bool> dead(wires_.size(), false);
  for (std::size_t i : failed_wires) {
    if (i >= wires_.size()) {
      return make_error(ErrorCode::kOutOfRange,
                        strprintf("failed wire index %zu out of range", i));
    }
    dead[i] = true;
  }

  // Surviving adjacency: chip x port -> peer chip. Southbridge ports carry
  // no plan wire and stay -1.
  struct Edge {
    int peer = -1;
    bool internal = false;
  };
  std::vector<std::array<Edge, kPortsPerChip>> adj(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < wires_.size(); ++i) {
    if (dead[i]) continue;
    const WireSpec& w = wires_[i];
    adj[static_cast<std::size_t>(w.a.chip)][static_cast<std::size_t>(w.a.port)] =
        Edge{w.b.chip, !w.tccluster};
    adj[static_cast<std::size_t>(w.b.chip)][static_cast<std::size_t>(w.b.port)] =
        Edge{w.a.chip, !w.tccluster};
  }

  // BFS distance from `target` over surviving intra-Supernode coherent
  // links (external routing is planned at Supernode granularity below).
  auto bfs = [&](int target) {
    std::vector<int> dist(static_cast<std::size_t>(n), kInf);
    std::deque<int> q{target};
    dist[static_cast<std::size_t>(target)] = 0;
    while (!q.empty()) {
      const int c = q.front();
      q.pop_front();
      for (int p = 0; p < kPortsPerChip; ++p) {
        const Edge& e = adj[static_cast<std::size_t>(c)][static_cast<std::size_t>(p)];
        if (e.peer < 0 || !e.internal) continue;
        if (dist[static_cast<std::size_t>(e.peer)] != kInf) continue;
        dist[static_cast<std::size_t>(e.peer)] = dist[static_cast<std::size_t>(c)] + 1;
        q.push_back(e.peer);
      }
    }
    return dist;
  };
  // Lowest-numbered coherent port on `c` one step closer to the BFS target.
  // Every chip routing strictly downhill on the same distance field is what
  // makes the degraded tables loop-free.
  auto downhill_port = [&](const std::vector<int>& dist, int c) {
    for (int p = 0; p < kPortsPerChip; ++p) {
      const Edge& e = adj[static_cast<std::size_t>(c)][static_cast<std::size_t>(p)];
      if (e.peer < 0 || !e.internal) continue;
      if (dist[static_cast<std::size_t>(e.peer)] ==
          dist[static_cast<std::size_t>(c)] - 1) {
        return p;
      }
    }
    return -1;
  };

  ClusterPlan degraded = *this;
  for (ChipPlan& cp : degraded.chips_) {
    cp.unreachable_supernodes.clear();
  }
  std::string unreachable;
  auto note_unreachable = [&](const std::string& what) {
    if (!unreachable.empty()) unreachable += "; ";
    unreachable += what;
  };

  // Intra-Supernode coherent routes (a failed internal wire on a 4-ring has
  // a detour the other way around; on a pair it partitions the Supernode).
  // A split coherent fabric is fatal even in best-effort mode: the Supernode
  // is no longer a machine, not merely an unreachable network destination.
  for (const SupernodePlan& sn : supernodes_) {
    for (int m = 0; m < k; ++m) {
      const int target = sn.chips[static_cast<std::size_t>(m)];
      const auto dist = bfs(target);
      for (int m2 = 0; m2 < k; ++m2) {
        if (m2 == m) continue;
        const int c = sn.chips[static_cast<std::size_t>(m2)];
        ChipPlan& cp = degraded.chips_[static_cast<std::size_t>(c)];
        if (dist[static_cast<std::size_t>(c)] == kInf) {
          note_unreachable(strprintf("chip %d cannot reach member %d of Supernode %d",
                                     c, m, sn.index));
          continue;
        }
        cp.route_to_member[static_cast<std::size_t>(m)] = downhill_port(dist, c);
      }
    }
  }
  if (best_effort && !unreachable.empty()) {
    return make_error(ErrorCode::kUnavailable,
                      "failed links partition the cluster: " + unreachable);
  }

  // Remote-Supernode egress, planned at Supernode granularity. A BFS over
  // the surviving external topology picks one egress wire per
  // (source, target) Supernode pair; among the steps one Supernode closer
  // to the target, the dimension-order preference wins (highest dimension
  // first, positive before negative). On an intact fabric that reproduces
  // build()'s dimension-ordered choice exactly, and after a cut it keeps
  // target -> egress piecewise-constant over contiguous index runs —
  // per-chip BFS tie-breaking here used to fragment a plane cut's
  // survivors past their base/limit register budgets.
  struct SnEdge {
    int to = -1;
    PortRef port;  ///< local wire endpoint
    int rank = 0;  ///< dimension-order preference, lower wins
  };
  std::vector<std::vector<SnEdge>> sn_adj(static_cast<std::size_t>(num_sn));
  {
    const Dims dims = dims_of(config_);
    auto step_rank = [&](int s, int nbr) {
      const auto cs = coords_of(dims, s);
      const auto cn = coords_of(dims, nbr);
      for (int d = dims.count - 1; d >= 0; --d) {
        const auto dd = static_cast<std::size_t>(d);
        if (cs[dd] == cn[dd]) continue;
        const bool positive = (cs[dd] + 1) % dims.d[dd].size == cn[dd];
        return 2 * (dims.count - 1 - d) + (positive ? 0 : 1);
      }
      return 2 * dims.count;  // parallel cable link: no grid direction
    };
    for (std::size_t i = 0; i < wires_.size(); ++i) {
      if (dead[i] || !wires_[i].tccluster) continue;
      const WireSpec& w = wires_[i];
      const int sa = chips_[static_cast<std::size_t>(w.a.chip)].supernode;
      const int sb = chips_[static_cast<std::size_t>(w.b.chip)].supernode;
      sn_adj[static_cast<std::size_t>(sa)].push_back(SnEdge{sb, w.a, step_rank(sa, sb)});
      sn_adj[static_cast<std::size_t>(sb)].push_back(SnEdge{sa, w.b, step_rank(sb, sa)});
    }
  }

  std::vector<PortRef> egress(
      static_cast<std::size_t>(num_sn) * static_cast<std::size_t>(num_sn));
  auto egress_at = [&](int t, int s) -> PortRef& {
    return egress[static_cast<std::size_t>(t) * static_cast<std::size_t>(num_sn) +
                  static_cast<std::size_t>(s)];
  };
  std::vector<int> sn_dist(static_cast<std::size_t>(num_sn));
  for (int t = 0; t < num_sn; ++t) {
    std::fill(sn_dist.begin(), sn_dist.end(), kInf);
    std::deque<int> q{t};
    sn_dist[static_cast<std::size_t>(t)] = 0;
    while (!q.empty()) {
      const int s = q.front();
      q.pop_front();
      for (const SnEdge& e : sn_adj[static_cast<std::size_t>(s)]) {
        if (sn_dist[static_cast<std::size_t>(e.to)] != kInf) continue;
        sn_dist[static_cast<std::size_t>(e.to)] =
            sn_dist[static_cast<std::size_t>(s)] + 1;
        q.push_back(e.to);
      }
    }
    for (int s = 0; s < num_sn; ++s) {
      if (s == t) continue;
      if (sn_dist[static_cast<std::size_t>(s)] == kInf) {
        if (best_effort) {
          for (int chip : supernodes_[static_cast<std::size_t>(s)].chips) {
            degraded.chips_[static_cast<std::size_t>(chip)]
                .unreachable_supernodes.push_back(t);
          }
        } else {
          note_unreachable(
              strprintf("Supernode %d cannot reach Supernode %d (partition)", s, t));
        }
        continue;
      }
      const SnEdge* best = nullptr;
      for (const SnEdge& e : sn_adj[static_cast<std::size_t>(s)]) {
        if (sn_dist[static_cast<std::size_t>(e.to)] !=
            sn_dist[static_cast<std::size_t>(s)] - 1) {
          continue;
        }
        if (!best ||
            std::make_tuple(e.rank, e.port.chip, e.port.port) <
                std::make_tuple(best->rank, best->port.chip, best->port.port)) {
          best = &e;
        }
      }
      TCC_ASSERT(best != nullptr, "finite Supernode distance but no downhill step");
      egress_at(t, s) = best->port;
    }
  }
  if (!unreachable.empty()) {
    return make_error(ErrorCode::kUnavailable,
                      "failed links partition the cluster: " + unreachable);
  }

  // Rebuild each chip's routed intervals: contiguous Supernode runs whose
  // egress resolves to the same local port merge into one base/limit pair,
  // exactly as in build(); unreachable Supernodes (best-effort only) are
  // simply left out, so their addresses fall through to next_hop()'s
  // kUnavailable answer.
  const std::uint64_t sn_bytes =
      static_cast<std::uint64_t>(k) * config_.dram_per_chip;
  for (int c = 0; c < n; ++c) {
    ChipPlan& cp = degraded.chips_[static_cast<std::size_t>(c)];
    // The Supernode-level wire endpoint resolves to this chip's own port:
    // the wire's port when this chip owns it, else the (degraded) internal
    // route towards the owning member.
    auto resolve = [&](const PortRef& pr) {
      if (pr.chip == cp.chip) return pr.port;
      const int owner_member = chips_[static_cast<std::size_t>(pr.chip)].member;
      const int p = cp.route_to_member[static_cast<std::size_t>(owner_member)];
      TCC_ASSERT(p >= 0, "no internal route to the port-owning member");
      return p;
    };
    struct Run {
      int first, last, port;
    };
    std::vector<Run> runs;
    for (int t = 0; t < num_sn; ++t) {
      if (t == cp.supernode) continue;
      const PortRef pr = egress_at(t, cp.supernode);
      if (pr.chip < 0) continue;  // unreachable (best-effort): no interval
      const int port = resolve(pr);
      if (!runs.empty() && runs.back().last == t - 1 && runs.back().port == port) {
        runs.back().last = t;
      } else {
        runs.push_back(Run{t, t, port});
      }
    }
    std::vector<ChipSegment> segments;
    segments.reserve(runs.size());
    for (const Run& r : runs) {
      segments.push_back(ChipSegment{
          AddrRange{PhysAddr{config_.global_base +
                             static_cast<std::uint64_t>(r.first) * sn_bytes},
                    static_cast<std::uint64_t>(r.last - r.first + 1) * sn_bytes},
          r.port});
    }
    if (Status st = assign_chip_ranges(cp, segments, k); !st.ok()) {
      return st.error();
    }
  }
  return degraded;
}

Result<int> ClusterPlan::external_hops(int from_supernode, int to_supernode) const {
  if (from_supernode == to_supernode) return 0;
  const std::size_t from_chip =
      static_cast<std::size_t>(supernodes_.at(static_cast<std::size_t>(from_supernode)).chips[0]);
  const PhysAddr target =
      supernodes_.at(static_cast<std::size_t>(to_supernode)).range.base;
  auto route = trace_route(static_cast<int>(from_chip), target);
  if (!route.ok()) return route.error();
  // Count external crossings: consecutive chips in different Supernodes.
  int hops = 0;
  for (std::size_t i = 1; i < route.value().size(); ++i) {
    const int a = chips_[static_cast<std::size_t>(route.value()[i - 1])].supernode;
    const int b = chips_[static_cast<std::size_t>(route.value()[i])].supernode;
    if (a != b) ++hops;
  }
  return hops;
}

int ClusterPlan::bisection_wires() const {
  const Dims dims = dims_of(config_);
  int best = 0;
  bool first = true;
  for (int d = 0; d < dims.count; ++d) {
    const Dim& dd = dims.d[static_cast<std::size_t>(d)];
    if (dd.size <= 1) continue;
    // Split the dimension at size/2 and count external wires whose endpoint
    // Supernodes land on opposite sides (wrap wires cross naturally).
    const int half = dd.size / 2;
    int crossing = 0;
    for (const WireSpec& w : wires_) {
      if (!w.tccluster) continue;
      const int sa = chips_[static_cast<std::size_t>(w.a.chip)].supernode;
      const int sb = chips_[static_cast<std::size_t>(w.b.chip)].supernode;
      const int ca = coords_of(dims, sa)[static_cast<std::size_t>(d)];
      const int cb = coords_of(dims, sb)[static_cast<std::size_t>(d)];
      if ((ca < half) != (cb < half)) ++crossing;
    }
    if (first || crossing < best) {
      best = crossing;
      first = false;
    }
  }
  return best;
}

}  // namespace tcc::topology
