// msg_sweep — mpptest-style (size x distance x pattern) sweep of the tcmsg
// hot path: plain sends vs packed line-groups.
//
// Patterns (the two mpptest kernels that bracket a message layer):
//   * pingpong — one plain message in flight, half-RTT latency.
//   * burst — W messages posted back-to-back, receiver echoes one 8-byte ack
//     when the window has fully arrived (windowed round-trip). Run twice: as
//     W plain send()s, and packed into send_packed() groups, the call tcrel's
//     drain path makes. Packed groups amortize the doorbell sfence, slot
//     markers, and the receiver's validation pass across the group.
//
// Emits BENCH_msg_sweep.json (schema v1) and exits 1 when a burst point's
// packed/plain ratio falls below its floor (the kMin* constants) or the
// <=32 B geomean falls below 1.5x.
#include <cmath>
#include <cstring>

#include "bench_util.hpp"

namespace {

using namespace tcc;

// How the packed burst groups its messages: payloads of at most
// kPackEligibleBytes ride in groups of at most kPackGroupMsgs records and
// kPackGroupBytes of region (2 B record headers count); larger payloads go
// out as plain sends.
constexpr std::uint32_t kPackEligibleBytes = 192;
constexpr std::size_t kPackGroupMsgs = 16;
constexpr std::size_t kPackGroupBytes = 1024;

/// Post `window` copies of `payload` as packed groups: close a group before
/// a record that would overflow it, and after one that fills it (16
/// records, or less than one record header of room left).
sim::Task<void> send_packed_burst(cluster::MsgEndpoint* ea,
                                  std::span<const std::uint8_t> payload, int window) {
  const std::size_t record =
      cluster::MsgSlot::record_bytes(0, static_cast<std::uint32_t>(payload.size()));
  std::vector<cluster::MsgEndpoint::PackedItem> group;
  std::size_t region = 0;
  for (int i = 0; i < window; ++i) {
    if (!group.empty() && region + record > kPackGroupBytes) {
      (co_await ea->send_packed(group)).expect("send_packed");
      group.clear();
      region = 0;
    }
    group.push_back({payload, 0});
    region += record;
    if (group.size() == kPackGroupMsgs ||
        region + cluster::MsgSlot::kRecordBase > kPackGroupBytes) {
      (co_await ea->send_packed(group)).expect("send_packed");
      group.clear();
      region = 0;
    }
  }
  if (!group.empty()) (co_await ea->send_packed(group)).expect("send_packed");
}

/// One burst round: `ea` posts `window` messages of `bytes` each (packed
/// when `packed` and the payload is eligible, send_bytes above the
/// single-message limit), then waits for the receiver's 8-byte ack. Returns
/// the round's wall time.
double burst_round_us(cluster::TcCluster& cl, cluster::MsgEndpoint* ea,
                      cluster::MsgEndpoint* eb, std::uint32_t bytes, int window,
                      bool packed, Rng& jitter) {
  std::vector<std::uint8_t> payload(bytes, 0xa5);
  const std::uint8_t ack[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  Picoseconds elapsed;
  cl.engine().spawn_fn([&]() -> sim::Task<void> {
    // De-phase the round start (outside the timed window) so the receiver's
    // poll loop does not lock onto the simulator's quantization.
    co_await cl.engine().delay(
        Picoseconds{static_cast<std::int64_t>(jitter.next_below(50'000))});
    const Picoseconds t0 = cl.engine().now();
    if (packed && bytes <= kPackEligibleBytes) {
      co_await send_packed_burst(ea, payload, window);
    } else {
      for (int i = 0; i < window; ++i) {
        if (bytes <= cluster::kMaxMessageBytes) {
          (co_await ea->send(payload)).expect("send");
        } else {
          (co_await ea->send_bytes(payload)).expect("send_bytes");
        }
      }
    }
    (co_await ea->recv_discard()).expect("ack");
    elapsed = cl.engine().now() - t0;
  });
  cl.engine().spawn_fn([&]() -> sim::Task<void> {
    // recv() with the payload copy, not recv_discard(): a consumer that
    // never touches its payload is not the workload packing targets, and
    // packed groups always pay the region load (they must decode records).
    const std::uint64_t expected =
        static_cast<std::uint64_t>(bytes) * static_cast<std::uint64_t>(window);
    std::uint64_t got = 0;
    while (got < expected) {
      got += (co_await eb->recv()).value().size();
    }
    (co_await eb->send(ack)).expect("ack send");
  });
  cl.engine().run();
  return elapsed.nanoseconds() / 1e3;
}

struct SweepPoint {
  double mmsgs_per_sec = 0.0;
  double mbps = 0.0;
};

SweepPoint burst_sweep(cluster::TcCluster& cl, int a, int b, std::uint32_t bytes,
                       int window, int rounds, bool packed) {
  auto* ea = cl.msg(a).connect(b).value();
  auto* eb = cl.msg(b).connect(a).value();
  Rng jitter(0x5eed ^ bytes);
  double total_us = 0.0;
  for (int r = 0; r < rounds; ++r) {
    total_us += burst_round_us(cl, ea, eb, bytes, window, packed, jitter);
  }
  const double msgs = static_cast<double>(window) * rounds;
  SweepPoint p;
  p.mmsgs_per_sec = msgs / total_us;  // msgs per us == Mmsg/s
  p.mbps = msgs * bytes / total_us;   // bytes per us == MB/s
  return p;
}

// Floors on the packed/plain burst-throughput ratio. Both configs run
// in this binary and the ratio is taken in simulated time, so the floors
// are properties of the message layer, not of the runner.
//
// 8 B: 85% of the 2.06x (1 hop) / 2.07x (3 hops) measured when the floors
// were set, so a >15% ratio regression fails.
constexpr double kMin8BRatioOneHop = 2.06 * 0.85;
constexpr double kMin8BRatioThreeHops = 2.07 * 0.85;
// Every point <=32 B must improve; the slot-density win shrinks as the
// payload's own per-word UC loads (identical in both configs) take over.
constexpr double kMinSmallRatio = 1.2;
// 256 B: 85% of the measured parity (1.0x).
constexpr double kMin256BRatio = 0.85;
// No regression at >=4 KiB (5% jitter tolerance).
constexpr double kMinLargeRatio = 0.95;
// The small-message acceptance bar: geomean of every <=32 B burst ratio.
constexpr double kMinSmallGeomean = 1.5;

double burst_ratio_floor(int hops, std::uint32_t bytes) {
  if (bytes == 8) return hops == 1 ? kMin8BRatioOneHop : kMin8BRatioThreeHops;
  if (bytes <= 32) return kMinSmallRatio;
  if (bytes == 256) return kMin256BRatio;
  if (bytes >= 4096) return kMinLargeRatio;
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tcc;
  using namespace tcc::bench;

  const bool smoke = flag_bool(argc, argv, "--smoke");
  const int window = static_cast<int>(flag_int(argc, argv, "--window=", 64));
  const int rounds = static_cast<int>(flag_int(argc, argv, "--rounds=", smoke ? 8 : 40));
  const int pp_iters = static_cast<int>(flag_int(argc, argv, "--iters=", smoke ? 20 : 100));

  print_header("msg_sweep — (size x distance x pattern), plain vs packed",
               "mpptest methodology over the §IV.A/§VI message hot path");

  // One 4-chain serves both distances: 0->1 is one hop, 0->3 is three.
  cluster::TcCluster::Options o;
  o.topology.shape = topology::ClusterShape::kChain;
  o.topology.nx = 4;
  o.topology.dram_per_chip = 16_MiB;
  o.boot.model_code_fetch = false;
  auto cl = cluster::TcCluster::create(o);
  cl.expect("create chain");
  cl.value()->boot().expect("boot chain");
  cluster::TcCluster& c = *cl.value();

  const std::vector<std::uint32_t> sizes =
      smoke ? std::vector<std::uint32_t>{8, 32, 256, 4096}
            : std::vector<std::uint32_t>{8, 16, 32, 64, 128, 256, 1024, 4096};
  const int hops_list[] = {1, 3};

  BenchReport report("msg_sweep", "burst_throughput", "Mmsg/s");
  report.config("window", window);
  report.config("rounds", rounds);
  report.config("pingpong_iters", pp_iters);
  report.config("smoke", smoke ? 1.0 : 0.0);

  // Row columns: off_* is the plain side (packing off), on_* the packed one.
  Gate gate;
  std::vector<double> small_ratios;  // burst ratios at <=32 B, all distances
  std::printf("\n%8s %6s %10s | %13s %13s %8s | %11s\n", "pattern", "hops",
              "bytes", "plain Mmsg/s", "packed Mmsg/s", "ratio", "plain ns");
  for (const int hops : hops_list) {
    const int peer = hops;  // chain: node 0 -> node `hops`
    for (const std::uint32_t bytes : sizes) {
      const SweepPoint off = burst_sweep(c, 0, peer, bytes, window, rounds, false);
      const SweepPoint on = burst_sweep(c, 0, peer, bytes, window, rounds, true);
      const double ratio = on.mmsgs_per_sec / off.mmsgs_per_sec;
      report.add_sample(on.mmsgs_per_sec);
      report.add_row({BenchReport::str("pattern", "burst"),
                      BenchReport::num("hops", hops),
                      BenchReport::num("bytes", bytes),
                      BenchReport::num("off_mmsgs_per_sec", off.mmsgs_per_sec),
                      BenchReport::num("on_mmsgs_per_sec", on.mmsgs_per_sec),
                      BenchReport::num("off_mbps", off.mbps),
                      BenchReport::num("on_mbps", on.mbps),
                      BenchReport::num("ratio", ratio)});
      std::printf("%8s %6d %10u | %13.3f %13.3f %7.2fx |\n", "burst", hops, bytes,
                  off.mmsgs_per_sec, on.mmsgs_per_sec, ratio);
      if (bytes <= 32) small_ratios.push_back(ratio);
      const double min_ratio = burst_ratio_floor(hops, bytes);
      gate.check(ratio >= min_ratio, strprintf("burst %d hops %u B: ratio %.2fx below %.2fx",
                                               hops, bytes, ratio, min_ratio));
    }
    for (const std::uint32_t bytes : sizes) {
      if (bytes > cluster::kMaxMessageBytes) continue;  // pingpong is single-msg
      const double off_ns = pingpong_ns(c, 0, peer, bytes, pp_iters);
      report.add_row({BenchReport::str("pattern", "pingpong"),
                      BenchReport::num("hops", hops),
                      BenchReport::num("bytes", bytes),
                      BenchReport::num("off_half_rtt_ns", off_ns)});
      std::printf("%8s %6d %10u | %13s %13s %8s | %11.0f\n", "pingpong", hops, bytes,
                  "", "", "", off_ns);
    }
  }
  double small_ratio = 0.0;
  if (!small_ratios.empty()) {
    double log_sum = 0.0;
    for (const double r : small_ratios) log_sum += std::log(r);
    small_ratio = std::exp(log_sum / static_cast<double>(small_ratios.size()));
  }
  report.config("small_msg_ratio", small_ratio);
  report.write(flag_value(argc, argv, "--bench-out="));

  std::printf("\nsmall-message (<=32 B) burst throughput ratio %.2fx (geomean)\n",
              small_ratio);
  gate.check(small_ratio >= kMinSmallGeomean,
             strprintf("small-message geomean %.2fx below %.1fx", small_ratio,
                       kMinSmallGeomean));
  return gate.exit_code();
}
