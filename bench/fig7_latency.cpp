// Figure 7 — TCCluster half-round-trip latency vs message size.
//
// The paper's kernel: ping-pong between two nodes, receiver polling a memory
// location, 227 ns half-RTT for 64 B packets, still below 1 us at 1 KByte;
// Infiniband reference ~1.0-1.4 us for minimal packets (a ~4x advantage).
#include <cmath>

#include "baseline/nic.hpp"
#include "bench_util.hpp"

namespace {

double ib_pingpong_ns(std::uint32_t bytes, int iters) {
  using namespace tcc;
  sim::Engine engine;
  baseline::NicPair pair(engine, baseline::NicParams::connectx());
  Picoseconds total;
  engine.spawn_fn([&]() -> sim::Task<void> {
    const Picoseconds t0 = engine.now();
    for (int i = 0; i < iters; ++i) {
      co_await pair.a_to_b().post_send(bytes);
      (void)co_await pair.b_to_a().poll_recv();
    }
    total = engine.now() - t0;
  });
  engine.spawn_fn([&]() -> sim::Task<void> {
    for (int i = 0; i < iters; ++i) {
      (void)co_await pair.a_to_b().poll_recv();
      co_await pair.b_to_a().post_send(bytes);
    }
  });
  engine.run();
  return total.nanoseconds() / (2.0 * iters);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tcc;
  using namespace tcc::bench;

  print_header("fig7_latency — TCCluster half-round-trip latency vs message size",
               "Figure 7 (paper: 227 ns at 64 B, <1 us at 1 KiB; ConnectX ~1.4 us; "
               "'outperforming other high performance networks by an order of "
               "magnitude' / 4x vs IB)");

  std::printf("%12s %16s %16s %10s\n", "payload", "tccluster ns", "connectx ns",
              "speedup");

  constexpr int kIters = 200;
  BenchReport report("fig7_latency", "half_rtt", "ns");
  report.config("iters", kIters);
  report.config("link_freq", to_string(ht::LinkFreq::kHt800));
  report.config("topology", "cable");
  // Payload sizes: a one-slot message carries 48 bytes next to its header —
  // the paper's "64 byte packets" are one cache line on the wire.
  for (std::uint32_t payload : {48u, 112u, 240u, 496u, 1008u, 2032u, 3520u}) {
    auto cl = make_cable();
    Samples per_iter;
    const double tcc_ns = pingpong_ns(*cl, 0, 1, payload, kIters, &per_iter);
    const double ib_ns = ib_pingpong_ns(payload + 16, kIters);
    std::printf("%12s %16.0f %16.0f %9.1fx%s\n",
                format_bytes(payload + 16).c_str(), tcc_ns, ib_ns, ib_ns / tcc_ns,
                payload == 48u ? "   <- paper: 227 ns" : "");

    report.add_sample(tcc_ns);
    BenchReport::Fields row = {
        BenchReport::num("payload_bytes", payload),
        BenchReport::num("wire_bytes", payload + 16),
        BenchReport::num("tccluster_ns", tcc_ns),
        BenchReport::num("connectx_ns", ib_ns),
    };
    for (auto& f : BenchReport::summary_fields(per_iter)) {
      row.push_back({"tccluster_" + f.first, std::move(f.second)});
    }
    report.add_row(std::move(row));
  }
  report.write(flag_value(argc, argv, "--bench-out="));

  std::printf(
      "\npaper check: ~227 ns at one cache line, <1000 ns at 1 KiB, and a\n"
      "~4-6x advantage over the ConnectX reference at small messages.\n");

  // The summary the JSON carries must describe real ping-pongs.
  Gate gate;
  const double p50 = report.samples().percentile(50.0);
  gate.check(report.samples().count() > 0, "no half-RTT samples");
  gate.check(std::isfinite(p50) && p50 > 0.0, strprintf("half-RTT p50 %g ns", p50));
  return gate.exit_code();
}
