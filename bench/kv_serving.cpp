// KV serving under open-loop load: the serving-stack capacity curve.
//
// Sweeps offered load past the latency knee: per-request latency sits at
// the fabric RTT until the offered rate crosses what the credit-limited
// RPC path and the client's link absorb, then queueing delay takes over
// and the p99 turns the corner. Requests never fail in the fault-free
// sweep — deadlines sit above the worst drain time, so overload surfaces
// as latency and SLO violations, not drops (the open-loop harness keeps
// offering regardless of completions).
//
// Two rigs, selected with --shape=:
//
//  * ring (default): the 4-node ring (chip 0 the client, chips 1..3 the
//    servers), plus a fault-injected run that kills the hot shard's
//    primary mid-run: the keepalive verdict promotes the replica within
//    one membership epoch and the row shows the detection gap as a
//    latency tail plus the epoch cost.
//  * torus3d: a 4x4x4 torus of 4-chip Supernodes (256 chips, staged
//    bring-up), eight servers spread across the four z-planes so the
//    domain-aware shard map never co-locates a shard's copies in one
//    plane. Reports per-hop latency percentiles and the bisection
//    bandwidth alongside the capacity sweep, then runs the plane-cut
//    scenario: every Supernode in one z-plane dies at once, survivors are
//    rerouted around the cut, and the run fails unless every acknowledged
//    write is still readable afterwards.
//
// Not a paper figure: the paper stops at MPI microbenchmarks. This is the
// ROADMAP "serving tier" scenario on top of the reproduced fabric.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "tcsvc/load.hpp"
#include "tcsvc/membership.hpp"

using namespace tcc;
using namespace tcc::bench;

namespace {

constexpr int kTorusDim = 4;  ///< 4x4x4 Supernodes, k = 4 -> 256 chips

/// A failover (ring primary kill, torus plane cut) must complete within one
/// membership epoch between the client and the promoted replica.
constexpr std::uint64_t kMaxFailoverEpochs = 1;
/// Wall-clock ceiling of the torus smoke (staged boot of 256 chips, fabric
/// probe, two-point sweep, plane cut) on one Release-built core: 2.5x its
/// 4.0 s baseline. A canary for the simulation going quadratic at scale (an
/// all-to-all protocol loop, a scheduler regression), not a latency figure.
constexpr double kTorusSmokeMaxWallS = 4.0 * 2.5;

/// One serving cluster. `nodes`/`services` are indexed by chip with null
/// holes: on the torus only the client and the eight servers get an RPC
/// node — the other 247 chips are fabric.
struct Rig {
  std::unique_ptr<cluster::TcCluster> cl;
  std::vector<int> servers;
  std::vector<int> participants;  ///< client (chip 0) + servers
  std::vector<std::unique_ptr<tcsvc::RpcNode>> nodes;
  std::vector<std::unique_ptr<tcsvc::KvService>> services;
  std::unique_ptr<tcsvc::KvClient> client;
};

/// Server chips for the torus rig: two Supernodes per z-plane — (1,1,z)
/// and (3,2,z) — so every plane holds servers but no plane holds both
/// copies of any shard (ShardMap::from_plan places replicas across
/// z-plane fault domains).
std::vector<int> torus_servers(const topology::ClusterPlan& plan) {
  std::vector<int> servers;
  for (int z = 0; z < kTorusDim; ++z) {
    for (int xy : {1 + kTorusDim * 1, 3 + kTorusDim * 2}) {
      const int sn = xy + kTorusDim * kTorusDim * z;
      servers.push_back(plan.supernodes()[static_cast<std::size_t>(sn)].chips[0]);
    }
  }
  return servers;
}

Rig make_rig(const std::string& shape, const tcsvc::KvConfig& kv_cfg) {
  Rig rig;
  if (shape == "torus3d") {
    rig.cl = make_torus3d(kTorusDim, kTorusDim, kTorusDim);
    rig.servers = torus_servers(rig.cl->plan());
  } else {
    cluster::TcCluster::Options o;
    o.topology.shape = topology::ClusterShape::kRing;
    o.topology.nx = 4;
    o.topology.dram_per_chip = 64_MiB;
    o.boot.model_code_fetch = false;
    rig.cl = cluster::TcCluster::create(o).value();
    rig.cl->boot().expect("boot");
    rig.servers = {1, 2, 3};
  }
  rig.participants.push_back(0);
  for (int s : rig.servers) rig.participants.push_back(s);

  auto map = tcsvc::ShardMap::from_plan(rig.cl->plan(), rig.servers, kv_cfg.shards);
  const int n = rig.cl->num_nodes();
  rig.nodes.resize(static_cast<std::size_t>(n));
  rig.services.resize(static_cast<std::size_t>(n));
  for (int chip : rig.participants) {
    rig.nodes[static_cast<std::size_t>(chip)] =
        std::make_unique<tcsvc::RpcNode>(*rig.cl, chip);
  }
  for (int chip : rig.servers) {
    rig.services[static_cast<std::size_t>(chip)] = std::make_unique<tcsvc::KvService>(
        *rig.cl, *rig.nodes[static_cast<std::size_t>(chip)], map, kv_cfg);
    rig.services[static_cast<std::size_t>(chip)]->start();
    rig.nodes[static_cast<std::size_t>(chip)]->start(rig.participants).expect("rpc start");
  }
  rig.client = std::make_unique<tcsvc::KvClient>(*rig.cl, *rig.nodes[0],
                                                 std::move(map), kv_cfg);
  return rig;
}

struct PointResult {
  tcsvc::LoadReport rep;
  tcsvc::KvClientStats client_stats;
  tcsvc::RpcStats rpc_stats;          ///< client-side RPC node
  std::uint64_t failover_serves = 0;  ///< summed across servers
  std::uint64_t degraded_writes = 0;
  std::uint64_t epoch_delta = 0;      ///< client<->promoted replica (fault run)
};

/// One measured run at `load_cfg.offered_rps` on a fresh cluster. When
/// `fault_after` is set, the hot key's primary is killed that long into
/// the measured window (keepalives judge it dead, its replica promotes).
PointResult run_point(const std::string& shape, const tcsvc::LoadConfig& load_cfg,
                      const tcsvc::KvConfig& kv_cfg,
                      std::optional<Picoseconds> fault_after) {
  Rig rig = make_rig(shape, kv_cfg);
  tcsvc::LoadGenerator gen(*rig.cl, *rig.client, load_cfg);

  const tcsvc::ShardMap& map = rig.client->shard_map();
  const int hot_shard = map.shard_of(gen.key_of(0));
  const int dead_chip = map.primary(hot_shard);
  const int promoted = map.replica(hot_shard);

  if (fault_after.has_value()) {
    // Keepalive domain = the chips that serve or judge: the other chips
    // have nothing to say about shard health, and a beat round is a
    // sequential store per monitored peer.
    for (int p : rig.participants) {
      rig.cl->driver(p).start_keepalive(Picoseconds::from_us(2.0),
                                        Picoseconds::from_us(10.0),
                                        rig.participants);
    }
  }

  PointResult out;
  rig.cl->engine().spawn_fn([&]() -> sim::Task<void> {
    (co_await gen.prefill()).expect("prefill");
    std::uint64_t epoch0 = 0;
    if (fault_after.has_value()) {
      // Prefill touched every server, so the client<->replica endpoint
      // exists; snapshot its membership epoch before the blackout.
      epoch0 = rig.nodes[0]->endpoint(promoted)->epoch();
      rig.cl->engine().spawn_fn([&]() -> sim::Task<void> {
        co_await rig.cl->engine().delay(*fault_after);
        rig.cl->driver(dead_chip).set_hung(true);
        rig.nodes[static_cast<std::size_t>(dead_chip)]->stop();
      });
    }
    co_await gen.run();
    if (fault_after.has_value()) {
      out.epoch_delta = rig.nodes[0]->endpoint(promoted)->epoch() - epoch0;
      for (int p : rig.participants) rig.cl->driver(p).stop_keepalive();
    }
    for (auto& node : rig.nodes) {
      if (node) node->stop();
    }
  });
  rig.cl->engine().run();

  out.rep = gen.report();
  out.client_stats = rig.client->stats();
  out.rpc_stats = rig.nodes[0]->stats();
  for (int chip : rig.servers) {
    const tcsvc::KvStats& s = rig.services[static_cast<std::size_t>(chip)]->stats();
    out.failover_serves += s.failover_serves;
    out.degraded_writes += s.degraded_writes;
  }
  return out;
}

void print_row(double offered_rps, const PointResult& r, const char* note) {
  tcsvc::LoadReport rep = r.rep;  // percentile() sorts, needs a mutable copy
  std::printf("%9.0f  %7llu  %9llu  %6llu  %12.0f  %8.2f  %8.2f  %8.2f  %8llu  %6llu  %s\n",
              offered_rps / 1e3, static_cast<unsigned long long>(rep.offered),
              static_cast<unsigned long long>(rep.completed),
              static_cast<unsigned long long>(rep.failed), rep.goodput_rps() / 1e3,
              rep.latency_ns.percentile(50.0) / 1e3,
              rep.latency_ns.percentile(99.0) / 1e3,
              rep.latency_ns.percentile(99.9) / 1e3,
              static_cast<unsigned long long>(rep.slo_violations),
              static_cast<unsigned long long>(r.client_stats.retries), note);
}

BenchReport::Fields row_fields(double offered_rps, const PointResult& r, bool fault) {
  tcsvc::LoadReport rep = r.rep;
  BenchReport::Fields f = {
      BenchReport::num("offered_rps", offered_rps),
      BenchReport::num("offered", static_cast<double>(rep.offered)),
      BenchReport::num("completed", static_cast<double>(rep.completed)),
      BenchReport::num("failed", static_cast<double>(rep.failed)),
      BenchReport::num("goodput_rps", rep.goodput_rps()),
      BenchReport::num("p50_us", rep.latency_ns.percentile(50.0) / 1e3),
      BenchReport::num("p99_us", rep.latency_ns.percentile(99.0) / 1e3),
      BenchReport::num("p999_us", rep.latency_ns.percentile(99.9) / 1e3),
      BenchReport::num("slo_violations", static_cast<double>(rep.slo_violations)),
      BenchReport::num("retries", static_cast<double>(r.client_stats.retries)),
      BenchReport::num("credit_stalls", static_cast<double>(r.rpc_stats.credit_stalls)),
      BenchReport::num("fault", fault ? 1.0 : 0.0),
  };
  if (fault) {
    f.push_back(BenchReport::num("epoch_delta", static_cast<double>(r.epoch_delta)));
    f.push_back(BenchReport::num("failover_serves",
                                 static_cast<double>(r.failover_serves)));
    f.push_back(BenchReport::num("failover_routes",
                                 static_cast<double>(r.client_stats.failover_routes)));
  }
  return f;
}

/// Every sweep or fault row must report completed requests and finite
/// percentiles.
void check_point(Gate& gate, double offered_rps, const PointResult& r) {
  tcsvc::LoadReport rep = r.rep;
  const double p50 = rep.latency_ns.percentile(50.0);
  const double p99 = rep.latency_ns.percentile(99.0);
  const double p999 = rep.latency_ns.percentile(99.9);
  gate.check(std::isfinite(offered_rps) && std::isfinite(p50) && std::isfinite(p99) &&
                 std::isfinite(p999),
             strprintf("%.0f rps: non-finite latency percentile", offered_rps));
  gate.check(rep.completed > 0, strprintf("%.0f rps: no completed requests", offered_rps));
}

/// Torus-only preamble: ping-pong from chip 0 to representative Supernodes
/// at increasing dimension-ordered distance, and the cross-section figures
/// (bisection wire count times the negotiated per-link rate).
void torus_fabric_rows(BenchReport& report, Gate& gate) {
  auto cl = make_torus3d(kTorusDim, kTorusDim, kTorusDim);
  const topology::ClusterPlan& plan = cl->plan();

  double link_bps = 0.0;
  for (std::size_t i = 0; i < plan.wires().size(); ++i) {
    if (plan.wires()[i].tccluster) {
      link_bps = cl->machine().link(static_cast<int>(i)).side_a().regs().rate()
                     .bytes_per_second();
      break;
    }
  }
  const int bisection = plan.bisection_wires();
  report.config("bisection_wires", static_cast<double>(bisection));
  report.config("link_gbytes_per_s", link_bps / 1e9);
  report.config("bisection_gbytes_per_s", bisection * link_bps / 1e9);
  std::printf("\nfabric: %d chips, bisection %d wires x %.2f GB/s = %.1f GB/s\n",
              plan.config().num_chips(), bisection, link_bps / 1e9,
              bisection * link_bps / 1e9);
  gate.check(bisection > 0 && std::isfinite(link_bps) && link_bps > 0.0,
             strprintf("bisection %d wires x %g GB/s", bisection, link_bps / 1e9));

  std::printf("per-hop latency (chip 0 -> first chip of Supernode):\n");
  constexpr int kIters = 50;
  // 1, 2, 3, 6 dimension-ordered hops; the gate needs three distances or
  // more to see latency rise with hop count.
  constexpr int kTargets[] = {1, 5, 21, 42};
  static_assert(std::size(kTargets) >= 3);
  int prev_hops = 0;
  double prev_lat = 0.0;
  for (int sn : kTargets) {
    const int peer = plan.supernodes()[static_cast<std::size_t>(sn)].chips[0];
    const int hops = plan.external_hops(0, sn).value();
    Samples per_iter;
    const double lat = pingpong_ns(*cl, 0, peer, 48, kIters, &per_iter);
    std::printf("  sn%-3d %d hops: %7.0f ns (p99 %7.0f)\n", sn, hops, lat,
                per_iter.percentile(99.0));
    gate.check(std::isfinite(lat) && (hops <= prev_hops || lat > prev_lat),
               strprintf("%d hops: %.0f ns, not above %d hops: %.0f ns", hops, lat,
                         prev_hops, prev_lat));
    prev_hops = hops;
    prev_lat = lat;
    BenchReport::Fields f = {BenchReport::str("row", "per_hop_latency"),
                             BenchReport::num("target_sn", sn),
                             BenchReport::num("hops", hops),
                             BenchReport::num("half_rtt_ns", lat)};
    for (auto& s : BenchReport::summary_fields(per_iter)) f.push_back(std::move(s));
    report.add_row(std::move(f));
  }
}

struct PlaneCutResult {
  std::uint64_t acked = 0;
  std::uint64_t lost = 0;
  std::uint64_t stale = 0;
  std::uint64_t post_fault_acked = 0;
  std::uint64_t dead_primary_acked = 0;  ///< post-cut writes that failed over
  std::uint64_t epoch_delta = 0;
  double recover_us = 0.0;  ///< cut -> first acked write to a dead primary's shard
};

/// The acceptance scenario at scale: every Supernode in z-plane 3 dies at
/// once (drivers hung, RPC stopped, every touching wire down). Survivors
/// reroute around the cut and writing continues; afterwards every
/// acknowledged (key, value) must be readable from the surviving copy.
PlaneCutResult run_plane_cut(const tcsvc::KvConfig& kv_cfg) {
  Rig rig = make_rig("torus3d", kv_cfg);
  sim::Engine& engine = rig.cl->engine();
  const tcsvc::ShardMap& map = rig.client->shard_map();
  const topology::ClusterPlan& plan = rig.cl->plan();

  std::set<int> dead_chips;
  const int cut_z = kTorusDim - 1;
  for (int sn = cut_z * kTorusDim * kTorusDim;
       sn < (cut_z + 1) * kTorusDim * kTorusDim; ++sn) {
    for (int chip : plan.supernodes()[static_cast<std::size_t>(sn)].chips) {
      dead_chips.insert(chip);
    }
  }

  // Scoped keepalives (see run_point); a beat round across the torus takes
  // a few microseconds, so the verdict timeout gets extra headroom.
  for (int p : rig.participants) {
    rig.cl->driver(p).start_keepalive(Picoseconds::from_us(2.0),
                                      Picoseconds::from_us(20.0),
                                      rig.participants);
  }

  auto value_of = [](const std::string& tag, int i) {
    const std::string s = tag + std::to_string(i);
    return std::vector<std::uint8_t>(s.begin(), s.end());
  };

  PlaneCutResult out;
  std::map<std::string, std::vector<std::uint8_t>> acked;
  bool done = false;
  engine.spawn_fn([&]() -> sim::Task<void> {
    // Phase 1: healthy writes across enough keys to land on every shard —
    // in particular on shards whose primary lives in the doomed plane.
    std::vector<std::string> dead_primary_keys;
    for (int i = 0; i < 96; ++i) {
      const std::string key = "k" + std::to_string(i);
      const auto value = value_of("pre", i);
      auto r = co_await rig.client->put(key, value);
      if (r.ok()) {
        acked[key] = value;
        if (dead_chips.count(map.primary(map.shard_of(key))) != 0) {
          dead_primary_keys.push_back(key);
        }
      }
    }
    TCC_ASSERT(!dead_primary_keys.empty(),
               "the cut plane must own some primaries for the test to bite");

    const int promoted = map.replica(map.shard_of(dead_primary_keys.front()));
    const std::uint64_t epoch0 = rig.nodes[0]->endpoint(promoted)->epoch();

    // The cut: the whole z-plane at once — drivers stop heartbeating, RPC
    // pumps halt, and every wire touching the plane drops carrier.
    for (int chip : dead_chips) {
      rig.cl->driver(chip).set_hung(true);
      if (rig.nodes[static_cast<std::size_t>(chip)]) {
        rig.nodes[static_cast<std::size_t>(chip)]->stop();
      }
    }
    for (std::size_t i = 0; i < plan.wires().size(); ++i) {
      const topology::WireSpec& w = plan.wires()[i];
      // The cut severs cables (external tccluster wires); the dead plane's
      // internal coherent fabric is irrelevant once its chips hang.
      if (!w.tccluster) continue;
      if (dead_chips.count(w.a.chip) != 0 || dead_chips.count(w.b.chip) != 0) {
        rig.cl->machine().link(static_cast<int>(i)).force_down("plane cut");
      }
    }
    const Picoseconds cut_at = engine.now();
    rig.cl->reroute_around_failed_links(topology::RouteAroundPolicy::kBestEffort)
        .expect("reroute around plane cut");

    // Phase 2: keep writing through the blackout — half the writes target
    // shards whose primary just died (they must fail over to the replica
    // in a surviving plane), half exercise untouched shards.
    for (int i = 0; i < 48; ++i) {
      const std::string key = (i % 2 == 0 && !dead_primary_keys.empty())
          ? dead_primary_keys[static_cast<std::size_t>(i / 2) % dead_primary_keys.size()]
          : "post" + std::to_string(i);
      const auto value = value_of("post", i);
      auto r = co_await rig.client->put(key, value,
                                        engine.now() + Picoseconds::from_us(400.0));
      if (r.ok()) {
        acked[key] = value;
        ++out.post_fault_acked;
        if (dead_chips.count(map.primary(map.shard_of(key))) != 0) {
          if (out.dead_primary_acked == 0) {
            out.recover_us = (engine.now() - cut_at).microseconds();
          }
          ++out.dead_primary_acked;
        }
      }
    }
    out.epoch_delta = rig.nodes[0]->endpoint(promoted)->epoch() - epoch0;

    for (int p : rig.participants) rig.cl->driver(p).stop_keepalive();
    for (auto& node : rig.nodes) {
      if (node) node->stop();
    }
    done = true;
  });
  engine.run();
  TCC_ASSERT(done, "plane-cut script must run to completion");

  // No acknowledged write lost: every acked (key, value) is present on the
  // chip now acting as the key's primary.
  out.acked = acked.size();
  for (const auto& [key, value] : acked) {
    const int shard = map.shard_of(key);
    int owner = map.primary(shard);
    if (dead_chips.count(owner) != 0) owner = map.replica(shard);
    if (owner < 0 || dead_chips.count(owner) != 0) {
      ++out.lost;
      continue;
    }
    auto copy = rig.services[static_cast<std::size_t>(owner)]->peek(key);
    if (!copy.has_value()) {
      ++out.lost;
    } else if (*copy != value) {
      ++out.stale;
    }
  }
  return out;
}

// ---------------------------------------------------------- --rebalance --

/// Elastic-membership rig: one persistent cluster living through the full
/// lifecycle. On the ring it is a 6-chip ring (chip 0 the client and the
/// membership coordinator, chips 1..3 the founding servers, chip 4 the
/// joiner); --shape=torus3d swaps in a 2x2x2 torus of 4-chip Supernodes
/// (32 chips) with the client and servers on Supernode-leading chips, so
/// the rebalance streams cross real dimension-ordered routes.
struct RebalanceRig {
  std::unique_ptr<cluster::TcCluster> cl;
  std::vector<int> servers;  ///< founding serving set
  int joiner = -1;
  std::vector<int> participants;  ///< client + servers + joiner
  std::vector<std::unique_ptr<tcsvc::RpcNode>> nodes;
  std::vector<std::unique_ptr<tcsvc::KvService>> services;
  std::vector<std::unique_ptr<tcsvc::MembershipAgent>> agents;
  std::unique_ptr<tcsvc::KvClient> client;
  std::unique_ptr<tcsvc::MembershipCoordinator> coord;

  [[nodiscard]] std::uint64_t entries_streamed() const {
    std::uint64_t sum = 0;
    for (const auto& a : agents) {
      if (a) sum += a->stats().entries_out;
    }
    return sum;
  }
  [[nodiscard]] std::uint64_t dual_writes() const {
    std::uint64_t sum = 0;
    for (const auto& a : agents) {
      if (a) sum += a->stats().dual_writes;
    }
    return sum;
  }
};

RebalanceRig make_rebalance_rig(const std::string& shape,
                                const tcsvc::KvConfig& kv_cfg) {
  RebalanceRig rig;
  if (shape == "torus3d") {
    rig.cl = make_torus3d(2, 2, 2);  // 8 Supernodes x 4 chips
    const auto& sns = rig.cl->plan().supernodes();
    for (int sn : {1, 2, 3}) rig.servers.push_back(sns[static_cast<std::size_t>(sn)].chips[0]);
    rig.joiner = sns[4].chips[0];
  } else {
    cluster::TcCluster::Options o;
    o.topology.shape = topology::ClusterShape::kRing;
    o.topology.nx = 6;
    o.topology.dram_per_chip = 64_MiB;
    o.boot.model_code_fetch = false;
    rig.cl = cluster::TcCluster::create(o).value();
    rig.cl->boot().expect("boot");
    rig.servers = {1, 2, 3};
    rig.joiner = 4;
  }
  rig.participants.push_back(0);
  for (int s : rig.servers) rig.participants.push_back(s);
  rig.participants.push_back(rig.joiner);

  auto map = tcsvc::ShardMap::from_plan(rig.cl->plan(), rig.servers, kv_cfg.shards);
  const int n = rig.cl->num_nodes();
  rig.nodes.resize(static_cast<std::size_t>(n));
  rig.services.resize(static_cast<std::size_t>(n));
  rig.agents.resize(static_cast<std::size_t>(n));
  for (int chip : rig.participants) {
    rig.nodes[static_cast<std::size_t>(chip)] =
        std::make_unique<tcsvc::RpcNode>(*rig.cl, chip);
  }
  for (int chip : rig.participants) {
    if (chip == 0) continue;  // the client chip never serves
    rig.services[static_cast<std::size_t>(chip)] = std::make_unique<tcsvc::KvService>(
        *rig.cl, *rig.nodes[static_cast<std::size_t>(chip)], map, kv_cfg);
    rig.services[static_cast<std::size_t>(chip)]->start();
  }
  rig.client = std::make_unique<tcsvc::KvClient>(*rig.cl, *rig.nodes[0], map, kv_cfg);
  for (int chip : rig.participants) {
    auto& agent = rig.agents[static_cast<std::size_t>(chip)];
    agent = std::make_unique<tcsvc::MembershipAgent>(
        *rig.cl, *rig.nodes[static_cast<std::size_t>(chip)], map);
    agent->start();
    agent->attach_service(rig.services[static_cast<std::size_t>(chip)].get());
  }
  rig.agents[0]->attach_client(rig.client.get());
  rig.coord = std::make_unique<tcsvc::MembershipCoordinator>(*rig.cl, *rig.agents[0],
                                                             rig.participants);
  rig.coord->start();
  for (int chip : rig.participants) {
    rig.nodes[static_cast<std::size_t>(chip)]->start(rig.participants).expect("rpc start");
  }
  for (int p : rig.participants) {
    rig.cl->driver(p).start_keepalive(Picoseconds::from_us(2.0),
                                      Picoseconds::from_us(10.0),
                                      rig.participants);
  }
  return rig;
}

// Rebalance-smoke bounds (2x2x2 torus). The hard bars are correctness: every
// membership op commits, state actually streams, no acked write is lost or
// stale. The numeric ceilings are loose canaries: p99 over a few-hundred-
// request smoke window is noisy, so they catch a rebalance that stalls
// serving (orders of magnitude), not jitter.
struct PhaseCeilings {
  double p99_vs_steady;  ///< p99 inflation over the steady window
  double budget_burn;    ///< SLO error-budget burn; 1.0 = the whole budget
};
constexpr PhaseCeilings kJoinCeilings{20.0, 10.0};
constexpr PhaseCeilings kDrainCeilings{20.0, 15.0};
constexpr PhaseCeilings kKillCeilings{40.0, 30.0};
/// Requests may fail only in the kill window (the detection gap), and only
/// a bounded handful there.
constexpr std::uint64_t kMaxKillFailed = 20;
/// Join, drain and kill each commit one rebalance.
constexpr std::uint64_t kMinRebalances = 3;
/// Smoke wall-clock ceiling: 3x its 2.0 s baseline (runner-dependent).
constexpr double kRebalanceSmokeMaxWallS = 2.0 * 3.0;

struct RebalancePhase {
  std::string name;
  tcsvc::LoadReport rep;
  bool op_ok = true;
  double op_us = 0.0;  ///< membership op latency (join/leave RPC, kill -> commit)
  std::uint64_t epoch = 0;
  std::uint64_t entries_streamed = 0;  ///< delta over the phase
  std::uint64_t dual_writes = 0;
};

/// The full lifecycle under a persistent open-loop Zipfian load plus a
/// closed-loop acked-write ledger: steady baseline, then a live join, a
/// planned drain, and a permanent kill (auto-heal evicts and re-seeds),
/// each a fresh measurement window with the membership event a third in.
/// Returns one row per phase plus the final read-back (lost/stale counts).
int run_rebalance(const std::string& shape, bool smoke, std::uint64_t keys,
                  BenchReport& report, const std::string& out_path,
                  const std::chrono::steady_clock::time_point wall_start) {
  Gate gate;
  tcsvc::KvConfig kv_cfg;
  RebalanceRig rig = make_rebalance_rig(shape, kv_cfg);
  sim::Engine& eng = rig.cl->engine();

  const double window_us = smoke ? 250.0 : 600.0;
  tcsvc::LoadConfig load_cfg;
  load_cfg.offered_rps = 250e3;
  load_cfg.keys = keys;
  load_cfg.duration = Picoseconds::from_us(window_us);
  // Generous per-request budget: a request launched right at the kill must
  // be able to ride out verdict latency plus the eviction rebalance.
  load_cfg.request_deadline = Picoseconds::from_us(500.0);

  report.config("rebalance", 1.0);
  report.config("window_us", window_us);
  report.config("rebalance_rps", load_cfg.offered_rps);
  report.config("error_budget", load_cfg.slo.error_budget);

  // The acked-write ledger (see the chaos soak): monotone per-write
  // counters, so an ambiguous timeout can only leave the store newer than
  // the ledger, never older.
  std::map<std::string, std::uint64_t> acked;
  std::uint64_t write_seq = 0;
  bool stop_writer = false;
  eng.spawn_fn([&]() -> sim::Task<void> {
    Rng rng(0x1ed6e5);
    tcsvc::ZipfianGenerator zipf(48, 0.9);
    while (!stop_writer) {
      const std::string key = "w" + std::to_string(zipf.next(rng));
      const std::uint64_t counter = ++write_seq;
      std::uint8_t buf[8];
      std::memcpy(buf, &counter, 8);
      auto r = co_await rig.client->put(key, buf,
                                        eng.now() + Picoseconds::from_us(400.0));
      if (r.ok()) acked[key] = counter;
      co_await eng.delay(Picoseconds::from_ns(
          1000.0 + static_cast<double>(rng.next_below(2000))));
    }
  });

  const int drained = rig.servers[2];  // planned leave
  const int victim = rig.servers[1];   // permanent kill -> auto-evict
  std::vector<RebalancePhase> phases;
  bool script_done = false;
  eng.spawn_fn([&]() -> sim::Task<void> {
    const char* names[] = {"steady", "join", "drain", "kill"};
    for (int pi = 0; pi < 4; ++pi) {
      RebalancePhase phase;
      phase.name = names[pi];
      const std::uint64_t streamed0 = rig.entries_streamed();
      const std::uint64_t dual0 = rig.dual_writes();
      load_cfg.seed = 17 + static_cast<std::uint64_t>(pi);
      tcsvc::LoadGenerator gen(*rig.cl, *rig.client, load_cfg);
      if (pi == 0) (co_await gen.prefill()).expect("prefill");

      bool op_done = (pi == 0);
      eng.spawn_fn([&]() -> sim::Task<void> {
        co_await eng.delay(Picoseconds::from_us(window_us / 3.0));
        const Picoseconds t0 = eng.now();
        const std::uint64_t epoch_target = static_cast<std::uint64_t>(pi);
        if (phase.name == "join") {
          Status s = co_await rig.agents[static_cast<std::size_t>(rig.joiner)]
                         ->request_join(0);
          phase.op_ok = s.ok();
        } else if (phase.name == "drain") {
          Status s = co_await rig.agents[static_cast<std::size_t>(drained)]
                         ->request_leave(0);
          phase.op_ok = s.ok();
        } else if (phase.name == "kill") {
          rig.cl->driver(victim).set_hung(true);
          rig.nodes[static_cast<std::size_t>(victim)]->stop();
          // Auto-heal owns the rest; the op "completes" at the commit.
          const Picoseconds give_up = eng.now() + Picoseconds::from_us(2000.0);
          while (rig.agents[0]->epoch() < epoch_target && eng.now() < give_up) {
            co_await eng.delay(Picoseconds::from_us(5.0));
          }
          phase.op_ok = rig.agents[0]->epoch() >= epoch_target;
        }
        phase.op_us = (eng.now() - t0).microseconds();
        op_done = true;
      });

      co_await gen.run();
      while (!op_done) co_await eng.delay(Picoseconds::from_us(5.0));
      phase.rep = gen.report();
      phase.epoch = rig.agents[0]->epoch();
      phase.entries_streamed = rig.entries_streamed() - streamed0;
      phase.dual_writes = rig.dual_writes() - dual0;
      phases.push_back(std::move(phase));
    }
    stop_writer = true;
    co_await eng.delay(Picoseconds::from_us(500.0));  // drain the last put
    for (int p : rig.participants) rig.cl->driver(p).stop_keepalive();
    for (auto& node : rig.nodes) {
      if (node) node->stop();
    }
    script_done = true;
  });
  eng.run();
  TCC_ASSERT(script_done, "rebalance script must run to completion");

  // Read-back against the final committed placement: an acked write is lost
  // if either pair member misses the key, stale if it holds a counter older
  // than the last acked one.
  std::uint64_t lost = 0, stale = 0;
  const tcsvc::ShardMap& final_map = rig.agents[0]->map();
  for (const auto& [key, counter] : acked) {
    const int shard = final_map.shard_of(key);
    for (const int owner : {final_map.primary(shard), final_map.replica(shard)}) {
      const auto* svc = owner >= 0
          ? rig.services[static_cast<std::size_t>(owner)].get() : nullptr;
      const auto copy = svc != nullptr ? svc->peek(key) : std::nullopt;
      if (!copy.has_value() || copy->size() != 8) {
        ++lost;
        continue;
      }
      std::uint64_t stored = 0;
      std::memcpy(&stored, copy->data(), 8);
      if (stored < counter) ++stale;
    }
  }

  std::printf("\n%7s  %7s  %9s  %6s  %8s  %8s  %8s  %9s  %6s  %9s  %6s  %5s\n",
              "phase", "offered", "completed", "failed", "p50_us", "p99_us",
              "slo_viol", "burn", "epoch", "streamed", "dualw", "op_us");
  const double steady_p99 = [&] {
    tcsvc::LoadReport rep = phases[0].rep;
    return rep.latency_ns.percentile(99.0) / 1e3;
  }();
  bool ops_ok = true;
  std::uint64_t serving_failed = 0;
  const PhaseCeilings* ceilings[] = {nullptr, &kJoinCeilings, &kDrainCeilings,
                                     &kKillCeilings};
  for (std::size_t pi = 0; pi < phases.size(); ++pi) {
    RebalancePhase& phase = phases[pi];
    tcsvc::LoadReport rep = phase.rep;
    const double p99_us = rep.latency_ns.percentile(99.0) / 1e3;
    const double p99_vs_steady = steady_p99 > 0.0 ? p99_us / steady_p99 : 0.0;
    // SLO error-budget burn: 1.0 = this window used its entire budget.
    const double burn = static_cast<double>(rep.slo_violations) /
        std::max(1.0, load_cfg.slo.error_budget * static_cast<double>(rep.offered));
    std::printf("%7s  %7llu  %9llu  %6llu  %8.2f  %8.2f  %8llu  %9.2f  %6llu  %9llu  %6llu  %5.0f\n",
                phase.name.c_str(), static_cast<unsigned long long>(rep.offered),
                static_cast<unsigned long long>(rep.completed),
                static_cast<unsigned long long>(rep.failed),
                rep.latency_ns.percentile(50.0) / 1e3, p99_us,
                static_cast<unsigned long long>(rep.slo_violations), burn,
                static_cast<unsigned long long>(phase.epoch),
                static_cast<unsigned long long>(phase.entries_streamed),
                static_cast<unsigned long long>(phase.dual_writes), phase.op_us);
    report.add_row({BenchReport::str("row", "rebalance_phase"),
                    BenchReport::str("phase", phase.name),
                    BenchReport::num("offered", static_cast<double>(rep.offered)),
                    BenchReport::num("completed", static_cast<double>(rep.completed)),
                    BenchReport::num("failed", static_cast<double>(rep.failed)),
                    BenchReport::num("p50_us", rep.latency_ns.percentile(50.0) / 1e3),
                    BenchReport::num("p99_us", p99_us),
                    BenchReport::num("p999_us", rep.latency_ns.percentile(99.9) / 1e3),
                    BenchReport::num("slo_violations",
                                     static_cast<double>(rep.slo_violations)),
                    BenchReport::num("budget_burn", burn),
                    BenchReport::num("p99_vs_steady", p99_vs_steady),
                    BenchReport::num("epoch", static_cast<double>(phase.epoch)),
                    BenchReport::num("entries_streamed",
                                     static_cast<double>(phase.entries_streamed)),
                    BenchReport::num("dual_writes",
                                     static_cast<double>(phase.dual_writes)),
                    BenchReport::num("op_us", phase.op_us),
                    BenchReport::num("op_ok", phase.op_ok ? 1.0 : 0.0)});
    report.add_sample(p99_us);
    ops_ok = ops_ok && phase.op_ok;
    const char* name = phase.name.c_str();
    if (phase.name == "kill") {
      gate.check(rep.failed <= kMaxKillFailed,
                 strprintf("kill: %llu failed requests (allowed %llu)",
                           static_cast<unsigned long long>(rep.failed),
                           static_cast<unsigned long long>(kMaxKillFailed)));
    } else {
      serving_failed += rep.failed;
    }
    gate.check(phase.epoch == pi, strprintf("%s: epoch %llu, expected %zu", name,
                                            static_cast<unsigned long long>(phase.epoch), pi));
    gate.check(rep.completed > 0, strprintf("%s: no completed requests", name));
    gate.check(std::isfinite(p99_us), strprintf("%s: p99 not finite", name));
    if (ceilings[pi] == nullptr) continue;  // steady: the reference window
    gate.check(phase.entries_streamed > 0, strprintf("%s: no entries streamed", name));
    gate.check(p99_vs_steady <= ceilings[pi]->p99_vs_steady,
               strprintf("%s: p99 inflated %.2fx over steady (ceiling %.1fx)", name,
                         p99_vs_steady, ceilings[pi]->p99_vs_steady));
    gate.check(burn <= ceilings[pi]->budget_burn,
               strprintf("%s: error-budget burn %.2f (ceiling %.1f)", name, burn,
                         ceilings[pi]->budget_burn));
  }
  const auto& cs = rig.coord->stats();
  std::printf("\nledger: %llu acked keys, %llu lost, %llu stale; coordinator: "
              "%llu rebalances (%llu join, %llu leave, %llu evict, %llu failed)\n",
              static_cast<unsigned long long>(acked.size()),
              static_cast<unsigned long long>(lost),
              static_cast<unsigned long long>(stale),
              static_cast<unsigned long long>(cs.rebalances),
              static_cast<unsigned long long>(cs.joins),
              static_cast<unsigned long long>(cs.leaves),
              static_cast<unsigned long long>(cs.evictions),
              static_cast<unsigned long long>(cs.failed));
  report.add_row({BenchReport::str("row", "rebalance_readback"),
                  BenchReport::num("acked", static_cast<double>(acked.size())),
                  BenchReport::num("lost", static_cast<double>(lost)),
                  BenchReport::num("stale", static_cast<double>(stale)),
                  BenchReport::num("rebalances", static_cast<double>(cs.rebalances)),
                  BenchReport::num("coord_failed", static_cast<double>(cs.failed))});

  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  report.config("wall_s", wall_s);
  report.write(out_path);
  std::printf("wall time: %.2f s\n", wall_s);

  gate.check(lost == 0 && stale == 0,
             strprintf("rebalance lifecycle lost %llu / rolled back %llu acknowledged "
                       "writes", static_cast<unsigned long long>(lost),
                       static_cast<unsigned long long>(stale)));
  gate.check(ops_ok && cs.failed == 0, "a membership operation did not complete");
  gate.check(serving_failed == 0,
             strprintf("%llu requests failed outside the kill window",
                       static_cast<unsigned long long>(serving_failed)));
  gate.check(!acked.empty(), "the ledger writer made no progress");
  gate.check(cs.rebalances >= kMinRebalances,
             strprintf("only %llu rebalances committed",
                       static_cast<unsigned long long>(cs.rebalances)));
  gate.check(!smoke || wall_s <= kRebalanceSmokeMaxWallS,
             strprintf("wall %.2f s over the %.1f s smoke ceiling", wall_s,
                       kRebalanceSmokeMaxWallS));
  if (gate.exit_code() == 0) {
    std::printf("join + drain + kill under load: zero acknowledged writes lost\n");
  }
  return gate.exit_code();
}

}  // namespace

int main(int argc, char** argv) {
  const auto wall_start = std::chrono::steady_clock::now();
  const std::string shape = flag_string(argc, argv, "--shape", "ring");
  const bool torus = shape == "torus3d";
  const bool rebalance = flag_bool(argc, argv, "--rebalance");

  print_header(rebalance
                   ? "kv serving: elastic membership (join/drain/kill) under "
                     "open-loop load"
                   : torus ? "kv serving: open-loop load + plane-cut failover on "
                             "the 4x4x4 torus (256 chips)"
                           : "kv serving: open-loop load sweep + failover on the "
                             "4-node ring",
               "serving-tier scenario (beyond the paper's MPI benches)");
  // Keepalive dead-peer WARNs are the expected mechanism in the fault runs.
  Log::set_level(LogLevel::kError);

  const bool smoke = flag_bool(argc, argv, "--smoke");
  const double duration_us =
      flag_double(argc, argv, "--duration-us=", smoke ? 250.0 : 1500.0);
  const std::uint64_t keys = static_cast<std::uint64_t>(
      flag_int(argc, argv, "--keys=", smoke ? 64 : 256));
  const std::string out_path = flag_value(argc, argv, "--bench-out=");

  if (rebalance) {
    BenchReport report("kv_serving", "p99_latency", "us");
    report.config("topology", torus ? std::string("torus3d-2x2x2")
                                    : std::string("ring-6"));
    report.config("keys", static_cast<double>(keys));
    report.config("smoke", smoke ? 1.0 : 0.0);
    return run_rebalance(shape, smoke, keys, report, out_path, wall_start);
  }

  std::vector<double> loads;
  if (smoke) {
    loads = {100e3, 500e3};
  } else if (torus) {
    loads = {100e3, 250e3, 500e3, 1e6};
  } else {
    loads = {100e3, 250e3, 500e3, 1e6, 1.5e6, 2e6};
  }

  tcsvc::KvConfig kv_cfg;
  tcsvc::LoadConfig load_cfg;
  load_cfg.keys = keys;
  load_cfg.value_bytes = static_cast<std::uint32_t>(flag_int(argc, argv, "--value-bytes=", 128));
  load_cfg.duration = Picoseconds::from_us(duration_us);

  BenchReport report("kv_serving", "p99_latency", "us");
  report.config("topology", torus ? std::string("torus3d-4x4x4") : std::string("ring-4"));
  report.config("servers", torus ? 8.0 : 3.0);
  report.config("shards", static_cast<double>(kv_cfg.shards));
  report.config("keys", static_cast<double>(keys));
  report.config("duration_us", duration_us);
  report.config("read_fraction", load_cfg.read_fraction);
  report.config("zipf_theta", load_cfg.zipf_theta);
  report.config("value_bytes", static_cast<double>(load_cfg.value_bytes));
  report.config("request_credits", static_cast<double>(tcsvc::RpcConfig{}.request_credits));
  report.config("smoke", smoke ? 1.0 : 0.0);

  Gate gate;
  if (torus) torus_fabric_rows(report, gate);

  std::printf("\n%9s  %7s  %9s  %6s  %12s  %8s  %8s  %8s  %8s  %6s\n",
              "off_krps", "offered", "completed", "failed", "goodput_krps",
              "p50_us", "p99_us", "p999_us", "slo_viol", "retry");

  std::uint64_t total_failed = 0;
  for (double rps : loads) {
    load_cfg.offered_rps = rps;
    // Above the knee the backlog drains after the arrival window; the
    // deadline must outlast that drain (window length times the overload
    // ratio against a conservative capacity floor) so overload reads as
    // latency, never as drops. Attempts get the whole budget: giving up
    // mid-queue and retrying would only re-enqueue the same work and
    // amplify the overload.
    const double drain_ratio = std::max(2.0, rps / 400e3);
    load_cfg.request_deadline =
        Picoseconds::from_us(drain_ratio * duration_us + 500.0);
    kv_cfg.op_deadline = load_cfg.request_deadline;
    kv_cfg.attempt_deadline = load_cfg.request_deadline;
    // Backpressure polls above the knee dominate sim time; a coarser poll
    // is invisible next to the millisecond-scale queueing delay there.
    kv_cfg.retry_backoff = Picoseconds::from_us(10.0);
    PointResult r = run_point(shape, load_cfg, kv_cfg, std::nullopt);
    print_row(rps, r, "");
    report.add_row(row_fields(rps, r, /*fault=*/false));
    check_point(gate, rps, r);
    tcsvc::LoadReport rep = r.rep;
    report.add_sample(rep.latency_ns.percentile(99.0) / 1e3);
    total_failed += rep.failed;
  }

  if (torus) {
    // Plane cut at scale, with the per-op deadlines back at their tight
    // defaults — giving up on a dead primary and flipping to its replica
    // is exactly the mechanism under test.
    tcsvc::KvConfig cut_cfg;
    PlaneCutResult pc = run_plane_cut(cut_cfg);
    std::printf("\nplane cut (z=%d, 64 chips): %llu acked writes, %llu lost, "
                "%llu stale; %llu post-cut acks (%llu failed over), first "
                "failover ack %.1f us after the cut, epoch_delta=%llu\n",
                kTorusDim - 1, static_cast<unsigned long long>(pc.acked),
                static_cast<unsigned long long>(pc.lost),
                static_cast<unsigned long long>(pc.stale),
                static_cast<unsigned long long>(pc.post_fault_acked),
                static_cast<unsigned long long>(pc.dead_primary_acked),
                pc.recover_us, static_cast<unsigned long long>(pc.epoch_delta));
    report.add_row({BenchReport::str("row", "plane_cut"),
                    BenchReport::num("acked", static_cast<double>(pc.acked)),
                    BenchReport::num("lost", static_cast<double>(pc.lost)),
                    BenchReport::num("stale", static_cast<double>(pc.stale)),
                    BenchReport::num("post_fault_acked",
                                     static_cast<double>(pc.post_fault_acked)),
                    BenchReport::num("dead_primary_acked",
                                     static_cast<double>(pc.dead_primary_acked)),
                    BenchReport::num("recover_us", pc.recover_us),
                    BenchReport::num("epoch_delta",
                                     static_cast<double>(pc.epoch_delta))});
    gate.check(pc.lost == 0 && pc.stale == 0,
               strprintf("the plane cut lost %llu / rolled back %llu acknowledged writes",
                         static_cast<unsigned long long>(pc.lost),
                         static_cast<unsigned long long>(pc.stale)));
    gate.check(pc.dead_primary_acked > 0, "no write failed over to a surviving replica");
    gate.check(pc.epoch_delta <= kMaxFailoverEpochs,
               strprintf("plane-cut failover took %llu membership epochs",
                         static_cast<unsigned long long>(pc.epoch_delta)));
  } else {
    // Fault-injected run: moderate load, primary killed a third into the
    // window. The short attempt budget is restored — giving up on the dead
    // primary and flipping to the replica is exactly the mechanism under
    // test. Failed requests here are requests whose deadline expired during
    // the detection gap — the generous overall budget should cover it.
    load_cfg.offered_rps = 250e3;
    load_cfg.request_deadline = Picoseconds::from_us(2.0 * duration_us + 500.0);
    kv_cfg.op_deadline = load_cfg.request_deadline;
    kv_cfg.attempt_deadline = tcsvc::KvConfig{}.attempt_deadline;
    kv_cfg.retry_backoff = tcsvc::KvConfig{}.retry_backoff;
    const Picoseconds fault_after = Picoseconds::from_us(duration_us / 3.0);
    PointResult fr = run_point(shape, load_cfg, kv_cfg, fault_after);
    print_row(load_cfg.offered_rps, fr, "<- primary killed mid-run");
    report.add_row(row_fields(load_cfg.offered_rps, fr, /*fault=*/true));
    check_point(gate, load_cfg.offered_rps, fr);
    gate.check(fr.epoch_delta <= kMaxFailoverEpochs,
               strprintf("failover took %llu membership epochs",
                         static_cast<unsigned long long>(fr.epoch_delta)));
    gate.check(fr.failover_serves > 0, "the replica never served for the dead primary");
    std::printf("\nfailover: epoch_delta=%llu (at most one membership epoch), "
                "failover_serves=%llu, rerouted=%llu, degraded_writes=%llu\n",
                static_cast<unsigned long long>(fr.epoch_delta),
                static_cast<unsigned long long>(fr.failover_serves),
                static_cast<unsigned long long>(fr.client_stats.failover_routes),
                static_cast<unsigned long long>(fr.degraded_writes));
  }

  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  report.config("wall_s", wall_s);
  report.write(out_path);
  std::printf("wall time: %.2f s\n", wall_s);

  gate.check(total_failed == 0,
             strprintf("%llu requests failed in the fault-free sweep",
                       static_cast<unsigned long long>(total_failed)));
  gate.check(!(smoke && torus) || wall_s <= kTorusSmokeMaxWallS,
             strprintf("wall %.2f s over the %.1f s torus smoke ceiling", wall_s,
                       kTorusSmokeMaxWallS));
  if (gate.exit_code() == 0) {
    std::printf(torus ? "fault-free sweep clean; plane cut lost zero "
                        "acknowledged writes\n"
                      : "fault-free sweep: zero failed requests\n");
  }
  return gate.exit_code();
}
