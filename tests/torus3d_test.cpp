// 3-D torus fabric tests: dimension-ordered routing at scale, the DRAM-pair
// spill machinery, and plane-cut recovery.
//
// The planner is pure, so these sweep hundreds of Supernodes without
// simulating: register budgets and reachability are checked on the planned
// tables directly (trace_route walks next_hop through the wire list — the
// same egress decisions the firmware programs into the northbridges).
#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "opteron/registers.hpp"
#include "topology/plan.hpp"

namespace tcc::topology {
namespace {

ClusterConfig torus3d(int nx, int ny, int nz, int k = 4) {
  ClusterConfig c;
  c.shape = ClusterShape::kTorus3D;
  c.nx = nx;
  c.ny = ny;
  c.nz = nz;
  c.supernode_size = k;
  c.dram_per_chip = 1_MiB;
  return c;
}

/// Wires (by index) with at least one endpoint chip in z-plane `z`.
std::vector<std::size_t> plane_wires(const ClusterPlan& p, int z) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < p.wires().size(); ++i) {
    const WireSpec& w = p.wires()[i];
    if (!w.tccluster) continue;
    const int sa = p.chips()[static_cast<std::size_t>(w.a.chip)].supernode;
    const int sb = p.chips()[static_cast<std::size_t>(w.b.chip)].supernode;
    if (p.supernode_coords(sa)[2] == z || p.supernode_coords(sb)[2] == z) {
      out.push_back(i);
    }
  }
  return out;
}

TEST(Torus3d, ShapeParsingRoundTrips) {
  for (ClusterShape s : {ClusterShape::kCable, ClusterShape::kChain,
                         ClusterShape::kRing, ClusterShape::kMesh2D,
                         ClusterShape::kTorus2D, ClusterShape::kTorus3D}) {
    auto parsed = shape_from_string(to_string(s));
    ASSERT_TRUE(parsed.ok()) << to_string(s);
    EXPECT_EQ(parsed.value(), s);
  }
  EXPECT_FALSE(shape_from_string("klein-bottle").ok());
}

TEST(Torus3d, ValidationRequiresFourChipSupernodes) {
  auto plan = ClusterPlan::build(torus3d(2, 2, 2, /*k=*/2));
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.error().code, ErrorCode::kConfigConflict);

  EXPECT_TRUE(ClusterPlan::build(torus3d(2, 2, 2, /*k=*/4)).ok());

  // nz > 1 is meaningless on a 2-D shape.
  ClusterConfig c = torus3d(2, 2, 2, 4);
  c.shape = ClusterShape::kTorus2D;
  c.supernode_size = 2;
  EXPECT_FALSE(ClusterPlan::build(c).ok());
}

TEST(Torus3d, DimensionOrderRoutesAreMinimalAndLoopFree) {
  const ClusterPlan p = ClusterPlan::build(torus3d(4, 4, 4)).value();
  // Worst-case pair on a 4x4x4 torus is coords (2,2,2) = Supernode 42:
  // 2+2+2 hops. The far corner (3,3,3) = 63 is only one wrap per dimension.
  EXPECT_EQ(p.external_hops(0, 42).value(), 6);
  EXPECT_EQ(p.external_hops(0, 63).value(), 3);
  // One plane down is one hop, wrap included.
  EXPECT_EQ(p.external_hops(0, 16).value(), 1);   // z+1
  EXPECT_EQ(p.external_hops(0, 48).value(), 1);   // z=3 via wrap
  // Bisection of a 4x4x4 torus: 4x4 cross-section, 2 wires per cut column
  // (forward + wrap) => 32 external wires.
  EXPECT_EQ(p.bisection_wires(), 32);
}

TEST(Torus3d, SpillRoutesStayWithinRegisterBudgets) {
  // 5x5x5 forces the worst interval counts (odd wraps split both ways).
  const ClusterPlan p = ClusterPlan::build(torus3d(5, 5, 5)).value();
  bool spilled = false;
  for (const ChipPlan& cp : p.chips()) {
    EXPECT_LE(static_cast<int>(cp.mmio.size()),
              opteron::kNumMmioRanges - (cp.southbridge_port.has_value() ? 1 : 0));
    EXPECT_LE(1 + static_cast<int>(cp.peer_dram.size()) +
                  static_cast<int>(cp.dram_routes.size()),
              opteron::kNumDramRanges);
    for (const ChipPlan::DramRoute& dr : cp.dram_routes) {
      spilled = true;
      ASSERT_GE(dr.node_id, 0);
      ASSERT_LT(dr.node_id, opteron::kUnassignedNodeId)
          << "NodeID 7 is the enumeration sentinel, never a spill alias";
      EXPECT_EQ(cp.route_to_member[static_cast<std::size_t>(dr.node_id)], dr.port)
          << "chip " << cp.chip << ": spill alias must route to its egress";
    }
  }
  EXPECT_TRUE(spilled) << "a 5x5x5 torus should need DRAM-pair spills";
}

// Randomized property sweep: random grids up to 8x8x8, seeded and
// reproducible. For each plan: decode windows disjoint, register budgets
// hold, and every (sampled) chip reaches every remote Supernode through the
// programmed egress ports, loop-free.
TEST(Torus3d, RandomizedPlansRouteEverywhereWithinBudget) {
  std::mt19937 rng(0x7cc5eed);
  std::uniform_int_distribution<int> dim(1, 8);

  std::vector<std::array<int, 3>> grids = {{8, 8, 8}, {2, 2, 2}};  // pinned extremes
  while (grids.size() < 10) {
    std::array<int, 3> g = {dim(rng), dim(rng), dim(rng)};
    if (g[0] * g[1] * g[2] < 2) continue;
    grids.push_back(g);
  }

  for (const auto& g : grids) {
    SCOPED_TRACE(::testing::Message() << g[0] << "x" << g[1] << "x" << g[2]);
    const auto built = ClusterPlan::build(torus3d(g[0], g[1], g[2]));
    ASSERT_TRUE(built.ok()) << built.error().to_string();
    const ClusterPlan& p = built.value();
    const int nsn = p.config().num_supernodes();
    const int nchips = p.config().num_chips();

    for (const ChipPlan& cp : p.chips()) {
      // Budgets.
      ASSERT_LE(static_cast<int>(cp.mmio.size()),
                opteron::kNumMmioRanges - (cp.southbridge_port.has_value() ? 1 : 0));
      ASSERT_LE(1 + static_cast<int>(cp.peer_dram.size()) +
                    static_cast<int>(cp.dram_routes.size()),
                opteron::kNumDramRanges);
      // Disjoint decode windows (MMIO + spill + own + peer DRAM).
      std::vector<AddrRange> windows;
      windows.push_back(cp.dram);
      for (const auto& peer : cp.peer_dram) windows.push_back(peer.range);
      for (const auto& dr : cp.dram_routes) windows.push_back(dr.range);
      for (const auto& m : cp.mmio) windows.push_back(m.range);
      for (std::size_t i = 0; i < windows.size(); ++i) {
        for (std::size_t j = i + 1; j < windows.size(); ++j) {
          ASSERT_FALSE(windows[i].overlaps(windows[j]))
              << "chip " << cp.chip << " windows " << i << "," << j;
        }
      }
    }

    // Reachability: every source chip on small plans; on big ones, every
    // BSP plus the full membership of a few random Supernodes.
    std::vector<int> sources;
    if (nchips <= 256) {
      for (int c = 0; c < nchips; ++c) sources.push_back(c);
    } else {
      for (const SupernodePlan& sn : p.supernodes()) sources.push_back(sn.chips[0]);
      std::uniform_int_distribution<int> pick(0, nsn - 1);
      for (int i = 0; i < 4; ++i) {
        for (int chip : p.supernodes()[static_cast<std::size_t>(pick(rng))].chips) {
          sources.push_back(chip);
        }
      }
    }
    // Walk next_hop by hand over a (chip, port) -> peer map built once per
    // plan — trace_route rebuilds that map per call, far too slow at 8x8x8.
    std::vector<std::array<int, 4>> peer(static_cast<std::size_t>(nchips),
                                         {-1, -1, -1, -1});
    for (const WireSpec& w : p.wires()) {
      peer[static_cast<std::size_t>(w.a.chip)][static_cast<std::size_t>(w.a.port)] =
          w.b.chip;
      peer[static_cast<std::size_t>(w.b.chip)][static_cast<std::size_t>(w.b.port)] =
          w.a.chip;
    }
    for (int src : sources) {
      for (int t = 0; t < nsn; ++t) {
        const SupernodePlan& sn = p.supernodes()[static_cast<std::size_t>(t)];
        // Probe the last member's DRAM: exercises the intra-Supernode leg too.
        const PhysAddr target =
            p.chips()[static_cast<std::size_t>(sn.chips.back())].dram.base + 4096;
        int cur = src;
        std::set<int> seen{src};
        bool sunk = false;
        for (int hop = 0; hop < 64 && !sunk; ++hop) {
          auto nh = p.next_hop(cur, target);
          ASSERT_TRUE(nh.ok()) << "src=" << src << " sn=" << t << " at=" << cur
                               << ": " << nh.error().to_string();
          if (!nh.value().has_value()) {
            sunk = true;
            break;
          }
          const int nxt = peer[static_cast<std::size_t>(cur)]
                              [static_cast<std::size_t>(*nh.value())];
          ASSERT_GE(nxt, 0) << "chip " << cur << " routes out an unwired port";
          ASSERT_TRUE(seen.insert(nxt).second)
              << "routing loop src=" << src << " sn=" << t;
          cur = nxt;
        }
        ASSERT_TRUE(sunk) << "src=" << src << " sn=" << t << ": no sink in 64 hops";
        ASSERT_EQ(cur, sn.chips.back()) << "src=" << src;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Plane-cut recovery.
// ---------------------------------------------------------------------------

TEST(Torus3d, PlaneCutStrictReportsPartition) {
  const ClusterPlan p = ClusterPlan::build(torus3d(3, 3, 3)).value();
  auto degraded = p.route_around(plane_wires(p, 2), RouteAroundPolicy::kStrict);
  ASSERT_FALSE(degraded.ok());
  EXPECT_EQ(degraded.error().code, ErrorCode::kUnavailable);
  EXPECT_NE(degraded.error().message.find("partition"), std::string::npos);
}

TEST(Torus3d, PlaneCutBestEffortKeepsSurvivorsServing) {
  const ClusterPlan p = ClusterPlan::build(torus3d(3, 3, 3)).value();
  const std::vector<std::size_t> cut = plane_wires(p, 2);
  auto degraded = p.route_around(cut, RouteAroundPolicy::kBestEffort);
  ASSERT_TRUE(degraded.ok()) << degraded.error().to_string();
  const ClusterPlan& d = degraded.value();
  const std::set<std::size_t> dead(cut.begin(), cut.end());

  for (const ChipPlan& cp : d.chips()) {
    const int z = d.supernode_coords(cp.supernode)[2];
    if (z == 2) continue;  // the cut plane itself is out of the picture
    for (int t = 0; t < d.config().num_supernodes(); ++t) {
      const SupernodePlan& sn = d.supernodes()[static_cast<std::size_t>(t)];
      const PhysAddr target =
          d.chips()[static_cast<std::size_t>(sn.chips[0])].dram.base + 4096;
      if (d.supernode_coords(t)[2] == 2) {
        // Typed unavailability, never a silent misroute.
        auto hop = d.next_hop(cp.chip, target);
        ASSERT_FALSE(hop.ok()) << "chip " << cp.chip << " -> dead sn " << t;
        EXPECT_EQ(hop.error().code, ErrorCode::kUnavailable);
        EXPECT_FALSE(
            std::find(cp.unreachable_supernodes.begin(),
                      cp.unreachable_supernodes.end(),
                      t) == cp.unreachable_supernodes.end());
      } else {
        auto route = d.trace_route(cp.chip, target);
        ASSERT_TRUE(route.ok()) << "chip " << cp.chip << " -> sn " << t << ": "
                                << route.error().to_string();
        EXPECT_EQ(route.value().back(), sn.chips[0]);
        // The route never crosses a dead wire.
        for (std::size_t i = 0; i + 1 < route.value().size(); ++i) {
          const int u = route.value()[i], v = route.value()[i + 1];
          for (std::size_t wi : dead) {
            const WireSpec& w = p.wires()[wi];
            EXPECT_FALSE((u == w.a.chip && v == w.b.chip) ||
                         (u == w.b.chip && v == w.a.chip))
                << "route crosses dead wire " << wi;
          }
        }
      }
    }
  }
}

TEST(Torus3d, FullPartitionIsTypedUnavailableNeverSilent) {
  // Regression: cut EVERY external wire. Strict must refuse with
  // kUnavailable; best-effort must leave each Supernode serving itself with
  // every remote address answered by a typed error — no plan may ever come
  // back silently unroutable.
  const ClusterPlan p = ClusterPlan::build(torus3d(2, 2, 2)).value();
  std::vector<std::size_t> all_external;
  for (std::size_t i = 0; i < p.wires().size(); ++i) {
    if (p.wires()[i].tccluster) all_external.push_back(i);
  }

  auto strict = p.route_around(all_external, RouteAroundPolicy::kStrict);
  ASSERT_FALSE(strict.ok());
  EXPECT_EQ(strict.error().code, ErrorCode::kUnavailable);
  EXPECT_NE(strict.error().message.find("partition"), std::string::npos);

  auto best = p.route_around(all_external, RouteAroundPolicy::kBestEffort);
  ASSERT_TRUE(best.ok()) << best.error().to_string();
  const ClusterPlan& d = best.value();
  for (const ChipPlan& cp : d.chips()) {
    for (int t = 0; t < d.config().num_supernodes(); ++t) {
      const SupernodePlan& sn = d.supernodes()[static_cast<std::size_t>(t)];
      const PhysAddr target =
          d.chips()[static_cast<std::size_t>(sn.chips[0])].dram.base + 4096;
      if (t == cp.supernode) {
        EXPECT_TRUE(d.trace_route(cp.chip, target).ok());
      } else {
        auto hop = d.next_hop(cp.chip, target);
        ASSERT_FALSE(hop.ok());
        EXPECT_EQ(hop.error().code, ErrorCode::kUnavailable);
      }
    }
  }
}

}  // namespace
}  // namespace tcc::topology
