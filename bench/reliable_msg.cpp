// tcrel overhead bench: what does end-to-end reliability cost on a healthy
// link? Ping-pong latency and burst goodput, raw tcmsg vs tcrel, across
// small-to-medium payloads on the paper's two-node cable prototype.
//
// Both columns do the same application-visible work: deliver the payload
// into a user buffer (MsgEndpoint::recv with copy + CRC — NOT the
// recv_discard detection kernel of Fig. 7, which never reads the payload
// out of uncacheable memory and so would charge the whole copy cost to the
// reliability column). What tcrel adds on top is the marker-tag header, the
// retransmit-buffer bookkeeping and the ACK machinery; the acceptance bar
// for this repo is <= 12% added half-RTT latency for small messages on a
// fault-free link (exit code 1 past the bar, so CI can gate on it).
// Fault-time behaviour is bench/fault_recovery.cpp and
// tests/chaos_soak_test.cpp territory.
#include <cstring>

#include "bench_util.hpp"

namespace tcc::bench {
namespace {

constexpr int kLatencyIters = 300;
constexpr int kBurstMessages = 300;
constexpr double kSmallPayloadBudgetPct = 12.0;

/// Ping-pong half-RTT in nanoseconds over either transport; both sides
/// receive with payload copy. Raw and rel endpoints must not share a ring,
/// so callers pass a fresh cluster per mode.
double pingpong_copy_ns(cluster::TcCluster& cl, bool reliable,
                        std::uint32_t payload_bytes, int iters,
                        Samples* per_iter) {
  cluster::ReliableEndpoint *ra = nullptr, *rb = nullptr;
  cluster::MsgEndpoint *ma = nullptr, *mb = nullptr;
  if (reliable) {
    ra = cl.rel(0).connect(1).value();
    rb = cl.rel(1).connect(0).value();
  } else {
    ma = cl.msg(0).connect(1).value();
    mb = cl.msg(1).connect(0).value();
  }
  std::vector<std::uint8_t> payload(payload_bytes, 0xa5);
  Picoseconds elapsed;
  cl.engine().spawn_fn([&, iters]() -> sim::Task<void> {
    Rng jitter(0x9e37);  // de-phase the poll loops, as in pingpong_ns
    Picoseconds sum = Picoseconds::zero();
    for (int i = 0; i < iters; ++i) {
      co_await cl.engine().delay(Picoseconds{
          static_cast<std::int64_t>(jitter.next_below(150'000))});
      const Picoseconds t0 = cl.engine().now();
      if (reliable) {
        (co_await ra->send(payload)).expect("send");
        (co_await ra->recv()).expect("pong");
      } else {
        (co_await ma->send(payload)).expect("send");
        (co_await ma->recv()).expect("pong");
      }
      const Picoseconds rtt = cl.engine().now() - t0;
      if (per_iter != nullptr) per_iter->add(rtt.nanoseconds() / 2.0);
      sum += rtt;
    }
    elapsed = sum;
  });
  cl.engine().spawn_fn([&, iters]() -> sim::Task<void> {
    for (int i = 0; i < iters; ++i) {
      if (reliable) {
        (co_await rb->recv()).expect("ping");
        (co_await rb->send(payload)).expect("send");
      } else {
        (co_await mb->recv()).expect("ping");
        (co_await mb->send(payload)).expect("send");
      }
    }
  });
  cl.engine().run();
  return elapsed.nanoseconds() / (2.0 * iters);
}

/// One-way burst goodput in MB/s: `count` messages of `payload_bytes`
/// streamed 0 -> 1, timed until the receiver has the last one.
double burst_mbps(cluster::TcCluster& cl, bool reliable, std::uint32_t payload_bytes,
                  int count) {
  std::vector<std::uint8_t> payload(payload_bytes, 0x5a);
  Picoseconds elapsed;
  const Picoseconds t0 = cl.engine().now();
  if (reliable) {
    auto* tx = cl.rel(0).connect(1).value();
    auto* rx = cl.rel(1).connect(0).value();
    cl.engine().spawn_fn([&, count]() -> sim::Task<void> {
      for (int i = 0; i < count; ++i) (co_await tx->send(payload)).expect("send");
    });
    cl.engine().spawn_fn([&, count]() -> sim::Task<void> {
      for (int i = 0; i < count; ++i) (co_await rx->recv()).expect("recv");
      elapsed = cl.engine().now() - t0;
    });
  } else {
    auto* tx = cl.msg(0).connect(1).value();
    auto* rx = cl.msg(1).connect(0).value();
    cl.engine().spawn_fn([&, count]() -> sim::Task<void> {
      for (int i = 0; i < count; ++i) (co_await tx->send(payload)).expect("send");
    });
    cl.engine().spawn_fn([&, count]() -> sim::Task<void> {
      // recv() with copy, not recv_discard(): the rel column must deliver
      // bytes, so the raw column does the same work.
      for (int i = 0; i < count; ++i) (co_await rx->recv()).expect("recv");
      elapsed = cl.engine().now() - t0;
    });
  }
  cl.engine().run();
  const double bytes = static_cast<double>(payload_bytes) * count;
  return bytes / elapsed.seconds() / 1e6;
}

int run(int argc, char** argv) {
  print_header("tcrel reliability overhead: raw tcmsg vs reliable endpoints",
               "repo acceptance bar (<= 12% small-message latency overhead); "
               "cf. §IV.B messaging layer");

  BenchReport report("reliable_msg", "half-RTT latency overhead of tcrel", "percent");
  {
    const cluster::RelConfig rel;
    report.config("latency_iters", kLatencyIters);
    report.config("burst_messages", kBurstMessages);
    report.config("budget_pct", kSmallPayloadBudgetPct);
    report.config("rel_window", static_cast<double>(rel.window));
    report.config("rel_seq_bits", rel.seq_bits);
    report.config("rel_ack_threshold", static_cast<double>(cluster::kRelAckThreshold));
  }

  std::printf("%8s %14s %14s %10s %14s %14s\n", "payload", "raw p50 (ns)",
              "rel p50 (ns)", "overhead", "raw MB/s", "rel MB/s");
  bool over_budget = false;
  for (const std::uint32_t payload : {8u, 32u, 256u, 1024u}) {
    // Fresh clusters per mode and per size: raw and rel endpoints must never
    // share a ring (cursors would fight), and a cold ring per row keeps the
    // two columns symmetric.
    Samples raw_lat, rel_lat;
    auto raw_cl = make_cable();
    pingpong_copy_ns(*raw_cl, false, payload, kLatencyIters, &raw_lat);
    auto rel_cl = make_cable();
    pingpong_copy_ns(*rel_cl, true, payload, kLatencyIters, &rel_lat);

    auto raw_burst_cl = make_cable();
    const double raw_mbps = burst_mbps(*raw_burst_cl, false, payload, kBurstMessages);
    auto rel_burst_cl = make_cable();
    const double rel_mbps = burst_mbps(*rel_burst_cl, true, payload, kBurstMessages);

    const double raw_p50 = raw_lat.percentile(50.0);
    const double rel_p50 = rel_lat.percentile(50.0);
    const double overhead_pct = (rel_p50 / raw_p50 - 1.0) * 100.0;
    report.add_sample(overhead_pct);
    if (payload <= 32 && overhead_pct > kSmallPayloadBudgetPct) over_budget = true;

    std::printf("%7uB %14.1f %14.1f %9.1f%% %14.1f %14.1f\n", payload, raw_p50,
                rel_p50, overhead_pct, raw_mbps, rel_mbps);
    report.add_row({BenchReport::num("payload_bytes", payload),
                    BenchReport::num("raw_p50_ns", raw_p50),
                    BenchReport::num("rel_p50_ns", rel_p50),
                    BenchReport::num("overhead_pct", overhead_pct),
                    BenchReport::num("raw_burst_mbps", raw_mbps),
                    BenchReport::num("rel_burst_mbps", rel_mbps)});
  }

  report.write(flag_value(argc, argv, "--bench-out="));
  if (over_budget) {
    std::printf("FAIL: small-message tcrel overhead exceeds %.0f%% budget\n",
                kSmallPayloadBudgetPct);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace tcc::bench

int main(int argc, char** argv) { return tcc::bench::run(argc, argv); }
