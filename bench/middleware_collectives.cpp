// §VII outlook — "The next step in our work will be to port a middleware
// software layer like MPI or GASNet on top of our simple message library.
// This will enable to run more complex applications ... and to benchmark
// their performance." This bench does exactly that: collective latencies of
// the tcmpi layer over TCCluster rings, and the PGAS get/put costs a
// write-only network implies.
#include "bench_util.hpp"
#include "middleware/pgas.hpp"
#include "sim/join.hpp"

namespace {

using namespace tcc;

std::unique_ptr<cluster::TcCluster> make_ring(int n) {
  cluster::TcCluster::Options o;
  o.topology.shape =
      n == 2 ? topology::ClusterShape::kCable : topology::ClusterShape::kRing;
  o.topology.nx = n;
  o.topology.dram_per_chip = 16_MiB;
  o.boot.model_code_fetch = false;
  auto c = cluster::TcCluster::create(o);
  c.expect("create");
  c.value()->boot().expect("boot");
  return std::move(c).value();
}

/// Time `iters` repetitions of a collective over all ranks; returns the
/// mean per-operation latency in microseconds.
template <typename OpFn>
double collective_us(cluster::TcCluster& cl, int iters, OpFn op) {
  const int n = cl.num_nodes();
  std::vector<std::unique_ptr<middleware::Communicator>> comms;
  for (int r = 0; r < n; ++r) {
    comms.push_back(std::make_unique<middleware::Communicator>(cl, r));
  }
  Picoseconds elapsed;
  sim::Joiner joiner(cl.engine());
  for (int r = 0; r < n; ++r) {
    joiner.launch_fn([&, r]() -> sim::Task<void> {
      for (int i = 0; i < iters; ++i) {
        co_await op(*comms[static_cast<std::size_t>(r)], i);
      }
    });
  }
  cl.engine().spawn_fn([&]() -> sim::Task<void> {
    const Picoseconds t0 = cl.engine().now();
    co_await joiner.wait_all();
    elapsed = cl.engine().now() - t0;
  });
  cl.engine().run();
  return elapsed.microseconds() / iters;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tcc;
  using namespace tcc::bench;

  print_header("middleware_collectives — MPI/PGAS layers over TCCluster",
               "§VII outlook: middleware performance on top of the message "
               "library");

  std::printf("%7s %14s %16s %14s %16s\n", "nodes", "barrier us", "allreduce us",
              "bcast-1K us", "alltoall-256B us");
  BenchReport report("middleware_collectives", "barrier_latency", "us");
  for (int n : {2, 4, 8}) {
    auto cl = make_ring(n);
    const double barrier = collective_us(*cl, 20, [](middleware::Communicator& c, int)
                                             -> sim::Task<void> {
      (co_await c.barrier()).expect("barrier");
    });
    auto cl2 = make_ring(n);
    const double allreduce = collective_us(
        *cl2, 20, [](middleware::Communicator& c, int i) -> sim::Task<void> {
          (void)(co_await c.allreduce_u64(static_cast<std::uint64_t>(i),
                                          middleware::ReduceOp::kSum))
              .expect("allreduce");
        });
    auto cl3 = make_ring(n);
    const double bcast = collective_us(
        *cl3, 20, [](middleware::Communicator& c, int) -> sim::Task<void> {
          std::vector<std::uint8_t> data;
          if (c.rank() == 0) data.assign(1024, 0x42);
          (co_await c.bcast(data, 0)).expect("bcast");
        });
    auto cl4 = make_ring(n);
    const double alltoall = collective_us(
        *cl4, 10, [n](middleware::Communicator& c, int) -> sim::Task<void> {
          std::vector<std::vector<std::uint8_t>> blocks(static_cast<std::size_t>(n));
          for (auto& b : blocks) b.assign(256, 0x17);
          (void)(co_await c.alltoall(blocks)).expect("alltoall");
        });
    std::printf("%7d %14.2f %16.2f %14.2f %16.2f\n", n, barrier, allreduce, bcast,
                alltoall);
    report.add_sample(barrier);
    report.add_row({BenchReport::num("nodes", n), BenchReport::num("barrier_us", barrier),
                    BenchReport::num("allreduce_us", allreduce),
                    BenchReport::num("bcast_1k_us", bcast),
                    BenchReport::num("alltoall_256b_us", alltoall)});
  }

  // 64-rank 3-D torus: 2x2x4 Supernodes of four chips each — the staged
  // bring-up path, with collectives spanning dimension-ordered multi-hop
  // routes instead of single-ring neighbours.
  std::printf("\n-- 3-D torus, 64 ranks (2x2x4 Supernodes, k=4) --\n");
  {
    {
      // Fabric figures and per-hop latency on a dedicated instance (the
      // collective runs below make their own message-library connections).
      auto probe = make_torus3d(2, 2, 4);
      const topology::ClusterPlan& plan = probe->plan();
      double link_bps = 0.0;
      for (std::size_t i = 0; i < plan.wires().size(); ++i) {
        if (plan.wires()[i].tccluster) {
          link_bps = probe->machine().link(static_cast<int>(i)).side_a().regs()
                         .rate().bytes_per_second();
          break;
        }
      }
      const int bisection = plan.bisection_wires();
      report.config("torus_nodes", 64.0);
      report.config("torus_bisection_wires", static_cast<double>(bisection));
      report.config("torus_bisection_gbytes_per_s", bisection * link_bps / 1e9);
      std::printf("bisection: %d wires x %.2f GB/s = %.1f GB/s\n", bisection,
                  link_bps / 1e9, bisection * link_bps / 1e9);
      for (int sn : {1, 5, 11}) {  // 1, 2, 4 dimension-ordered hops
        const int peer = plan.supernodes()[static_cast<std::size_t>(sn)].chips[0];
        const int hops = plan.external_hops(0, sn).value();
        Samples per_iter;
        const double lat = pingpong_ns(*probe, 0, peer, 48, 50, &per_iter);
        std::printf("per-hop: sn%-3d %d hops: %6.0f ns (p99 %6.0f)\n", sn, hops,
                    lat, per_iter.percentile(99.0));
        BenchReport::Fields f = {BenchReport::str("kind", "torus_per_hop"),
                                 BenchReport::num("hops", hops),
                                 BenchReport::num("half_rtt_ns", lat)};
        for (auto& s : BenchReport::summary_fields(per_iter)) f.push_back(std::move(s));
        report.add_row(std::move(f));
      }
    }

    auto cl = make_torus3d(2, 2, 4);
    const double barrier = collective_us(*cl, 10, [](middleware::Communicator& c, int)
                                             -> sim::Task<void> {
      (co_await c.barrier()).expect("barrier");
    });
    auto cl2 = make_torus3d(2, 2, 4);
    const double allreduce = collective_us(
        *cl2, 10, [](middleware::Communicator& c, int i) -> sim::Task<void> {
          (void)(co_await c.allreduce_u64(static_cast<std::uint64_t>(i),
                                          middleware::ReduceOp::kSum))
              .expect("allreduce");
        });
    auto cl3 = make_torus3d(2, 2, 4);
    const double bcast = collective_us(
        *cl3, 10, [](middleware::Communicator& c, int) -> sim::Task<void> {
          std::vector<std::uint8_t> data;
          if (c.rank() == 0) data.assign(1024, 0x42);
          (co_await c.bcast(data, 0)).expect("bcast");
        });
    std::printf("%7d %14.2f %16.2f %14.2f\n", 64, barrier, allreduce, bcast);
    report.add_sample(barrier);
    report.add_row({BenchReport::str("kind", "torus3d_2x2x4"),
                    BenchReport::num("nodes", 64),
                    BenchReport::num("barrier_us", barrier),
                    BenchReport::num("allreduce_us", allreduce),
                    BenchReport::num("bcast_1k_us", bcast)});
  }

  // PGAS op costs on a 4-node ring.
  std::printf("\n-- tcpgas op latency (4 nodes) --\n");
  {
    auto cl = make_ring(4);
    std::vector<std::unique_ptr<middleware::PgasRuntime>> rts;
    for (int r = 0; r < 4; ++r) {
      rts.push_back(std::make_unique<middleware::PgasRuntime>(*cl, r));
      rts.back()->start_service();
    }
    double local_get_us = 0, remote_get_us = 0, fadd_us = 0, put_us = 0;
    for (int r = 0; r < 4; ++r) {
      cl->engine().spawn_fn([&, r]() -> sim::Task<void> {
        middleware::PgasRuntime& rt = *rts[static_cast<std::size_t>(r)];
        auto arr = rt.allocate(1024);
        arr.expect("alloc");
        middleware::GlobalArray a = arr.value();
        (co_await rt.barrier()).expect("barrier");
        if (r == 0) {
          constexpr int kIters = 50;
          Picoseconds t0 = cl->engine().now();
          for (int i = 0; i < kIters; ++i) (void)co_await a.get(0);  // local
          local_get_us = (cl->engine().now() - t0).microseconds() / kIters;
          t0 = cl->engine().now();
          for (int i = 0; i < kIters; ++i) (void)co_await a.get(512);  // rank 2
          remote_get_us = (cl->engine().now() - t0).microseconds() / kIters;
          t0 = cl->engine().now();
          for (int i = 0; i < kIters; ++i) (void)co_await a.fetch_add(512, 1);
          fadd_us = (cl->engine().now() - t0).microseconds() / kIters;
          t0 = cl->engine().now();
          for (int i = 0; i < kIters; ++i) {
            (co_await a.put(512, static_cast<std::uint64_t>(i))).expect("put");
          }
          (co_await cl->core(0).sfence()).expect("sfence");
          put_us = (cl->engine().now() - t0).microseconds() / kIters;
        }
        (co_await rt.finalize()).expect("finalize");
      });
    }
    cl->engine().run();
    report.add_row({BenchReport::str("kind", "pgas"),
                    BenchReport::num("local_get_us", local_get_us),
                    BenchReport::num("remote_get_us", remote_get_us),
                    BenchReport::num("fetch_add_us", fadd_us),
                    BenchReport::num("remote_put_us", put_us)});
    std::printf("  local get:  %8.3f us (uncacheable DRAM read)\n", local_get_us);
    std::printf("  remote get: %8.3f us (active-message round trip — a write-only\n"
                "                        network cannot route read responses, §IV.A)\n",
                remote_get_us);
    std::printf("  fetch_add:  %8.3f us (served atomically by the owner)\n", fadd_us);
    std::printf("  remote put: %8.3f us (response-less active message over tcrel)\n",
                put_us);
  }

  report.write(flag_value(argc, argv, "--bench-out="));

  std::printf(
      "\npaper check: collectives complete in a few microseconds on rings of\n"
      "up to 8 nodes — the 'more complex applications' §VII aims for are\n"
      "feasible; the put/get asymmetry is the structural cost of the\n"
      "write-only network.\n");
  return 0;
}
