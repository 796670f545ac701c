// Store-op latency and durability: the tcstore layer under matched load.
//
// Three sections, all emitted into one BENCH_store_ops.json:
//
//  * matched-load latency: the same worker pool offers the same arrival
//    process for each op kind — plain set (the baseline the atomic ops are
//    judged against), incr, CAS and append — on the 4-node ring and again
//    on a 2x2x2 torus of 4-chip Supernodes, so the RMW execute + logical
//    replicate cost shows up as a ratio against the put path, not an
//    absolute number drowned in fabric latency.
//  * scan goodput: ordered range scans page every shard in bounded frames;
//    the row reports entries and bytes per second of simulated time.
//  * kill window (ring): incr writers keep an acked-op ledger while the
//    hot shard's primary is killed mid-run; keepalive verdicts promote the
//    replica and the run fails if any acked increment is lost or double
//    applied (stored counter outside [acked, acked + ambiguous]).
//
// Not a paper figure: the paper stops at MPI microbenchmarks. This is the
// ROADMAP serving-tier store on top of the reproduced fabric. The bench is
// its own gate: it exits 1 when a correctness bar or one of the k* bounds
// below fails.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "tcstore/store.hpp"

using namespace tcc;
using namespace tcc::bench;

namespace {

/// One serving cluster with the store layer on top. Indexed by chip with
/// null holes, like the kv_serving rigs.
struct Rig {
  std::unique_ptr<cluster::TcCluster> cl;
  std::vector<int> servers;
  std::vector<int> participants;  ///< client (first chip) + servers
  int client_chip = 0;
  std::vector<std::unique_ptr<tcsvc::RpcNode>> nodes;
  std::vector<std::unique_ptr<tcsvc::KvService>> kvs;
  std::vector<std::unique_ptr<tcstore::StoreService>> stores;
  std::unique_ptr<tcstore::StoreClient> client;

  void stop_all() {
    for (auto& node : nodes) {
      if (node) node->stop();
    }
  }
};

Rig make_rig(const std::string& shape, const tcstore::StoreConfig& cfg) {
  Rig rig;
  if (shape == "torus3d") {
    rig.cl = make_torus3d(2, 2, 2);  // 8 Supernodes x 4 chips
    const auto& sns = rig.cl->plan().supernodes();
    rig.client_chip = sns[0].chips[0];
    for (int sn : {1, 2, 3}) {
      rig.servers.push_back(sns[static_cast<std::size_t>(sn)].chips[0]);
    }
  } else {
    cluster::TcCluster::Options o;
    o.topology.shape = topology::ClusterShape::kRing;
    o.topology.nx = 4;
    o.topology.dram_per_chip = 64_MiB;
    o.boot.model_code_fetch = false;
    rig.cl = cluster::TcCluster::create(o).value();
    rig.cl->boot().expect("boot");
    rig.client_chip = 0;
    rig.servers = {1, 2, 3};
  }
  rig.participants.push_back(rig.client_chip);
  for (int s : rig.servers) rig.participants.push_back(s);

  tcsvc::KvConfig kv_cfg;
  auto map = tcsvc::ShardMap::from_plan(rig.cl->plan(), rig.servers, kv_cfg.shards);
  const int n = rig.cl->num_nodes();
  rig.nodes.resize(static_cast<std::size_t>(n));
  rig.kvs.resize(static_cast<std::size_t>(n));
  rig.stores.resize(static_cast<std::size_t>(n));
  for (int chip : rig.participants) {
    rig.nodes[static_cast<std::size_t>(chip)] =
        std::make_unique<tcsvc::RpcNode>(*rig.cl, chip);
  }
  for (int chip : rig.servers) {
    auto& node = *rig.nodes[static_cast<std::size_t>(chip)];
    rig.kvs[static_cast<std::size_t>(chip)] =
        std::make_unique<tcsvc::KvService>(*rig.cl, node, map, kv_cfg);
    rig.kvs[static_cast<std::size_t>(chip)]->start();
    rig.stores[static_cast<std::size_t>(chip)] = std::make_unique<tcstore::StoreService>(
        *rig.cl, node, *rig.kvs[static_cast<std::size_t>(chip)], cfg);
    rig.stores[static_cast<std::size_t>(chip)]->start();
  }
  for (int chip : rig.participants) {
    rig.nodes[static_cast<std::size_t>(chip)]->start(rig.participants).expect("rpc start");
  }
  rig.client = std::make_unique<tcstore::StoreClient>(
      *rig.cl, *rig.nodes[static_cast<std::size_t>(rig.client_chip)], map, cfg);
  return rig;
}

constexpr int kWorkers = 4;
constexpr int kKeysPerWorker = 8;
constexpr std::uint32_t kValueBytes = 64;

// Loose canaries: percentiles over a 240-op smoke window are noisy, so these
// catch structural regressions in the RMW or scan paths, not jitter.
//
// An atomic op's p99 must stay within this factor of the plain put p99 at
// the same offered load: the RMW execute + logical-replicate path must not
// be an order of magnitude off the state path.
constexpr double kMaxAtomicP99VsPut = 2.0;
/// Scan goodput floor, entries per second of simulated time.
constexpr double kMinScanEntriesPerS = 200'000.0;
/// Smoke wall-clock ceiling: 3x its 2.0 s baseline (runner-dependent).
constexpr double kStoreSmokeMaxWallS = 2.0 * 3.0;

/// One op kind measured on a fresh rig: kWorkers coroutines, each firing
/// `iters` ops at its own key set with a 1-3 us deterministic gap — the
/// same arrival process for every kind, so p99 ratios compare op cost.
struct KindResult {
  Samples latency_us;
  std::uint64_t failed = 0;
  double elapsed_us = 0.0;
};

KindResult run_kind(const std::string& shape, const std::string& kind, int iters) {
  tcstore::StoreConfig cfg;
  Rig rig = make_rig(shape, cfg);
  sim::Engine& eng = rig.cl->engine();

  KindResult out;
  const std::vector<std::uint8_t> value(kValueBytes, 0x5a);
  int done = 0;
  for (int w = 0; w < kWorkers; ++w) {
    eng.spawn_fn([&, w]() -> sim::Task<void> {
      Rng rng(0xbeef00 + static_cast<std::uint64_t>(w));
      std::map<std::string, std::uint64_t> cas_version;
      for (int i = 0; i < iters; ++i) {
        co_await eng.delay(Picoseconds::from_ns(
            1000.0 + static_cast<double>(rng.next_below(2000))));
        const std::string key =
            kind + std::to_string(w) + "_" + std::to_string(i % kKeysPerWorker);
        const Picoseconds t0 = eng.now();
        bool ok = false;
        if (kind == "put") {
          ok = (co_await rig.client->set(key, value)).ok();
        } else if (kind == "incr") {
          ok = (co_await rig.client->incr(key, 1)).ok();
        } else if (kind == "cas") {
          auto r = co_await rig.client->cas(key, cas_version[key], value);
          ok = r.ok() && r.value().success;
          if (r.ok()) cas_version[key] = r.value().version;
        } else if (kind == "append") {
          ok = (co_await rig.client->append(key, std::span(value.data(), 8))).ok();
        }
        if (ok) {
          out.latency_us.add((eng.now() - t0).microseconds());
        } else {
          ++out.failed;
        }
      }
      ++done;
    });
  }
  eng.spawn_fn([&]() -> sim::Task<void> {
    const Picoseconds t0 = eng.now();
    while (done < kWorkers) co_await eng.delay(Picoseconds::from_us(5.0));
    out.elapsed_us = (eng.now() - t0).microseconds();
    rig.stop_all();
  });
  eng.run();
  return out;
}

struct ScanResult {
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;
  double elapsed_us = 0.0;
  std::uint64_t frames = 0;
};

/// Populate keys across every shard, then page all shards front to back.
ScanResult run_scan(const std::string& shape, int keys) {
  tcstore::StoreConfig cfg;
  Rig rig = make_rig(shape, cfg);
  sim::Engine& eng = rig.cl->engine();
  const int shards = rig.client->shard_map().shards();

  ScanResult out;
  const std::vector<std::uint8_t> value(kValueBytes, 0x7e);
  bool done = false;
  eng.spawn_fn([&]() -> sim::Task<void> {
    for (int i = 0; i < keys; ++i) {
      (co_await rig.client->set("s" + std::to_string(i), value)).expect("prefill");
    }
    const Picoseconds t0 = eng.now();
    for (int shard = 0; shard < shards; ++shard) {
      auto r = co_await rig.client->scan_shard(shard);
      r.expect("scan");
      out.entries += r.value().size();
      for (const tcstore::ScanEntry& e : r.value()) {
        out.bytes += e.key.size() + e.value.size();
      }
    }
    out.elapsed_us = (eng.now() - t0).microseconds();
    for (int chip : rig.servers) {
      out.frames += rig.stores[static_cast<std::size_t>(chip)]->stats().scans;
    }
    rig.stop_all();
    done = true;
  });
  eng.run();
  TCC_ASSERT(done, "scan script must run to completion");
  return out;
}

struct ChaosResult {
  std::uint64_t acked = 0;      ///< total acked increments
  std::uint64_t ambiguous = 0;  ///< timed-out ops (may or may not have landed)
  std::uint64_t post_kill_acked = 0;
  std::uint64_t lost = 0;           ///< stored < acked for some key
  std::uint64_t double_applied = 0; ///< stored > acked + ambiguous
  std::uint64_t degraded_writes = 0;
};

/// The kill window: incr writers ledger every ack; a third into the run the
/// hot shard's primary goes dark (driver hung, RPC stopped) and keepalive
/// verdicts promote its replicas. Afterwards every key's stored counter
/// must bracket inside [acked, acked + ambiguous] on its surviving owner.
ChaosResult run_chaos(int iters) {
  tcstore::StoreConfig cfg;
  Rig rig = make_rig("ring", cfg);
  sim::Engine& eng = rig.cl->engine();
  const tcsvc::ShardMap& map = rig.client->shard_map();

  for (int p : rig.participants) {
    rig.cl->driver(p).start_keepalive(Picoseconds::from_us(2.0),
                                      Picoseconds::from_us(10.0),
                                      rig.participants);
  }

  const int victim = map.primary(map.shard_of("c0"));
  ChaosResult out;
  std::map<std::string, std::uint64_t> acked;
  std::map<std::string, std::uint64_t> ambiguous;
  bool killed = false;
  int done = 0;
  constexpr int kChaosWorkers = 2;
  constexpr int kChaosKeys = 12;
  for (int w = 0; w < kChaosWorkers; ++w) {
    eng.spawn_fn([&, w]() -> sim::Task<void> {
      Rng rng(0xc0ffee + static_cast<std::uint64_t>(w));
      for (int i = 0; i < iters; ++i) {
        co_await eng.delay(Picoseconds::from_ns(
            1500.0 + static_cast<double>(rng.next_below(2500))));
        const std::string key =
            strprintf("c%d", (w * kChaosKeys / kChaosWorkers + i) % kChaosKeys);
        auto r = co_await rig.client->incr(key, 1,
                                           Picoseconds{0},
                                           eng.now() + Picoseconds::from_us(400.0));
        if (r.ok()) {
          ++acked[key];
          ++out.acked;
          if (killed) ++out.post_kill_acked;
        } else {
          // A timeout is ambiguous — the op may have landed and only the
          // ack got lost; the bracket check below accounts for it.
          ++ambiguous[key];
          ++out.ambiguous;
        }
      }
      ++done;
    });
  }
  eng.spawn_fn([&]() -> sim::Task<void> {
    co_await eng.delay(Picoseconds::from_us(
        static_cast<double>(iters) * 1.0));  // roughly a third into the run
    rig.cl->driver(victim).set_hung(true);
    rig.nodes[static_cast<std::size_t>(victim)]->stop();
    killed = true;
    while (done < kChaosWorkers) co_await eng.delay(Picoseconds::from_us(5.0));
    for (int p : rig.participants) rig.cl->driver(p).stop_keepalive();
    rig.stop_all();
  });
  eng.run();

  for (const auto& [key, lo] : acked) {
    const int shard = map.shard_of(key);
    int owner = map.primary(shard);
    if (owner == victim) owner = map.replica(shard);
    const auto copy = rig.kvs[static_cast<std::size_t>(owner)]->peek(key);
    std::uint64_t stored = 0;
    if (copy.has_value() && copy->size() == 8) {
      std::memcpy(&stored, copy->data(), 8);
    }
    const std::uint64_t hi = lo + ambiguous[key];
    if (stored < lo) ++out.lost;
    if (stored > hi) ++out.double_applied;
  }
  for (int chip : rig.servers) {
    out.degraded_writes += rig.kvs[static_cast<std::size_t>(chip)]->stats().degraded_writes;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto wall_start = std::chrono::steady_clock::now();
  print_header("store ops: atomic RMW latency vs put, scan goodput, and the "
               "kill window",
               "serving-tier store scenario (beyond the paper's MPI benches)");
  // Keepalive dead-peer WARNs are the expected mechanism in the kill run.
  Log::set_level(LogLevel::kError);

  const bool smoke = flag_bool(argc, argv, "--smoke");
  const int iters = static_cast<int>(flag_int(argc, argv, "--iters=", smoke ? 60 : 250));
  const int scan_keys = static_cast<int>(
      flag_int(argc, argv, "--scan-keys=", smoke ? 128 : 384));
  const std::string out_path = flag_value(argc, argv, "--bench-out=");

  BenchReport report("store_ops", "p99_latency", "us");
  report.config("smoke", smoke ? 1.0 : 0.0);
  report.config("workers", static_cast<double>(kWorkers));
  report.config("iters_per_worker", static_cast<double>(iters));
  report.config("keys_per_worker", static_cast<double>(kKeysPerWorker));
  report.config("value_bytes", static_cast<double>(kValueBytes));
  report.config("scan_keys", static_cast<double>(scan_keys));

  Gate gate;
  const char* kinds[] = {"put", "incr", "cas", "append"};
  for (const std::string& shape : {std::string("ring"), std::string("torus3d")}) {
    const std::string topo = shape == "torus3d" ? "torus3d-2x2x2" : "ring-4";
    std::printf("\n[%s] matched load: %d workers x %d ops per kind\n",
                topo.c_str(), kWorkers, iters);
    std::printf("%8s  %6s  %6s  %8s  %8s  %8s  %10s\n", "op", "ok", "failed",
                "p50_us", "p99_us", "p999_us", "goodput");
    double put_p99 = 0.0;
    for (const char* kind : kinds) {
      KindResult r = run_kind(shape, kind, iters);
      const double goodput_kops =
          r.elapsed_us > 0.0
              ? static_cast<double>(r.latency_us.count()) / r.elapsed_us * 1e3
              : 0.0;
      std::printf("%8s  %6llu  %6llu  %8.2f  %8.2f  %8.2f  %7.0f kops\n", kind,
                  static_cast<unsigned long long>(r.latency_us.count()),
                  static_cast<unsigned long long>(r.failed),
                  r.latency_us.percentile(50.0), r.latency_us.percentile(99.0),
                  r.latency_us.percentile(99.9), goodput_kops);
      report.add_row({BenchReport::str("row", "op_latency"),
                      BenchReport::str("topology", topo),
                      BenchReport::str("op", kind),
                      BenchReport::num("completed",
                                       static_cast<double>(r.latency_us.count())),
                      BenchReport::num("failed", static_cast<double>(r.failed)),
                      BenchReport::num("p50_us", r.latency_us.percentile(50.0)),
                      BenchReport::num("p99_us", r.latency_us.percentile(99.0)),
                      BenchReport::num("p999_us", r.latency_us.percentile(99.9)),
                      BenchReport::num("goodput_kops", goodput_kops)});
      report.add_sample(r.latency_us.percentile(99.0));

      const double p99 = r.latency_us.percentile(99.0);
      const std::string what = topo + "/" + kind;
      gate.check(r.latency_us.count() > 0, what + ": no completed ops");
      gate.check(r.failed == 0, strprintf("%s: %llu failed ops", what.c_str(),
                                          static_cast<unsigned long long>(r.failed)));
      if (std::string(kind) == "put") {
        put_p99 = p99;
        gate.check(std::isfinite(p99) && p99 > 0.0, what + ": p99 not finite/positive");
      } else {
        gate.check(p99 <= kMaxAtomicP99VsPut * put_p99,
                   strprintf("%s: p99 %.2f us over %.1fx put p99 %.2f us", what.c_str(),
                             p99, kMaxAtomicP99VsPut, put_p99));
      }
    }

    ScanResult sc = run_scan(shape, scan_keys);
    const double entries_per_s =
        sc.elapsed_us > 0.0 ? static_cast<double>(sc.entries) / sc.elapsed_us * 1e6
                            : 0.0;
    const double mb_per_s =
        sc.elapsed_us > 0.0 ? static_cast<double>(sc.bytes) / sc.elapsed_us : 0.0;
    std::printf("%8s  %6llu  frames %llu  %8.2f us  %10.2f Mentries/s  %.1f MB/s\n",
                "scan", static_cast<unsigned long long>(sc.entries),
                static_cast<unsigned long long>(sc.frames), sc.elapsed_us,
                entries_per_s / 1e6, mb_per_s);
    report.add_row({BenchReport::str("row", "scan"),
                    BenchReport::str("topology", topo),
                    BenchReport::num("entries", static_cast<double>(sc.entries)),
                    BenchReport::num("frames", static_cast<double>(sc.frames)),
                    BenchReport::num("elapsed_us", sc.elapsed_us),
                    BenchReport::num("entries_per_s", entries_per_s),
                    BenchReport::num("mb_per_s", mb_per_s)});
    gate.check(sc.entries > 0 && sc.frames > 0, topo + ": scan returned no entries/frames");
    gate.check(entries_per_s >= kMinScanEntriesPerS,
               strprintf("%s: scan goodput %.0f/s below %.0f/s", topo.c_str(),
                         entries_per_s, kMinScanEntriesPerS));
  }

  ChaosResult ch = run_chaos(smoke ? 150 : 400);
  std::printf("\nkill window (ring): %llu acked (%llu post-kill, %llu ambiguous), "
              "%llu lost, %llu double-applied, degraded_writes=%llu\n",
              static_cast<unsigned long long>(ch.acked),
              static_cast<unsigned long long>(ch.post_kill_acked),
              static_cast<unsigned long long>(ch.ambiguous),
              static_cast<unsigned long long>(ch.lost),
              static_cast<unsigned long long>(ch.double_applied),
              static_cast<unsigned long long>(ch.degraded_writes));
  report.add_row({BenchReport::str("row", "kill_window"),
                  BenchReport::str("topology", "ring-4"),
                  BenchReport::num("acked", static_cast<double>(ch.acked)),
                  BenchReport::num("post_kill_acked",
                                   static_cast<double>(ch.post_kill_acked)),
                  BenchReport::num("ambiguous", static_cast<double>(ch.ambiguous)),
                  BenchReport::num("lost", static_cast<double>(ch.lost)),
                  BenchReport::num("double_applied",
                                   static_cast<double>(ch.double_applied))});

  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
          .count();
  report.config("wall_s", wall_s);
  report.write(out_path);
  std::printf("wall time: %.2f s\n", wall_s);

  gate.check(ch.lost == 0 && ch.double_applied == 0,
             strprintf("the kill window lost %llu / double-applied %llu acked increments",
                       static_cast<unsigned long long>(ch.lost),
                       static_cast<unsigned long long>(ch.double_applied)));
  gate.check(ch.acked > 0, "kill window: the ledger writer made no progress");
  gate.check(ch.post_kill_acked > 0, "no increment was acked after the kill");
  gate.check(!smoke || wall_s <= kStoreSmokeMaxWallS,
             strprintf("wall %.2f s over the %.1f s smoke ceiling", wall_s,
                       kStoreSmokeMaxWallS));
  if (gate.exit_code() == 0) {
    std::printf("kill window: zero acked increments lost or double-applied\n");
  }
  return gate.exit_code();
}
