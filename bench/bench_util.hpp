// Shared measurement harness for the paper-figure benches.
//
// Each bench binary regenerates one table/figure of the evaluation section
// (see DESIGN.md §3) and prints a self-describing table; EXPERIMENTS.md
// records paper-vs-measured for each.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "middleware/mpi.hpp"
#include "tccluster/cluster.hpp"
#include "telemetry/json.hpp"

namespace tcc::bench {

/// Value of a `--name=value` flag in argv, or `fallback` when absent.
/// `prefix` includes the equals sign, e.g. "--bench-out=".
inline std::string flag_value(int argc, char** argv, const std::string& prefix,
                              std::string fallback = {}) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  }
  return fallback;
}

/// `--name=123` flag parsed as an integer, or `fallback` when absent or
/// unparsable (trailing garbage after the number is ignored, like strtol).
inline std::int64_t flag_int(int argc, char** argv, const std::string& prefix,
                             std::int64_t fallback = 0) {
  const std::string raw = flag_value(argc, argv, prefix);
  if (raw.empty()) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(raw.c_str(), &end, 10);
  return end == raw.c_str() ? fallback : static_cast<std::int64_t>(v);
}

/// `--name=1.5` flag parsed as a double, or `fallback` when absent/unparsable.
inline double flag_double(int argc, char** argv, const std::string& prefix,
                          double fallback = 0.0) {
  const std::string raw = flag_value(argc, argv, prefix);
  if (raw.empty()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(raw.c_str(), &end);
  return end == raw.c_str() ? fallback : v;
}

/// String flag by bare name: `--shape=torus3d` -> "torus3d". `name` is the
/// bare flag ("--shape"), no equals sign — unlike flag_value, which takes
/// the full "--shape=" prefix.
inline std::string flag_string(int argc, char** argv, const std::string& name,
                               std::string fallback = {}) {
  return flag_value(argc, argv, name + "=", std::move(fallback));
}

/// Boolean flag: `--name` alone means true; `--name=0/false/no/off` means
/// false; anything else after `=` means true; absent means `fallback`.
/// `name` is the bare flag here ("--smoke"), no equals sign.
inline bool flag_bool(int argc, char** argv, const std::string& name,
                      bool fallback = false) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == name) return true;
    if (arg.rfind(name + "=", 0) == 0) {
      const std::string v = arg.substr(name.size() + 1);
      return !(v == "0" || v == "false" || v == "no" || v == "off");
    }
  }
  return fallback;
}

/// Structured result file for a paper-figure bench: BENCH_<name>.json next
/// to the printed table, so plots and CI regressions never scrape stdout.
///
/// Schema (schema_version 1, documented in docs/OBSERVABILITY.md):
///   {
///     "schema_version": 1,
///     "bench":  "<binary name>",
///     "metric": "<what summary/samples measure>", "unit": "<its unit>",
///     "config":  { free-form key -> string/number },
///     "summary": { "count", "mean", "p50", "p99", "min", "max" },
///     "series":  [ { per-row fields } ]
///   }
/// Percentiles are exact (tcc::Samples nearest-rank), not estimates.
class BenchReport {
 public:
  /// Key -> pre-serialized JSON fragment (build with num()/str()).
  using Fields = std::vector<std::pair<std::string, std::string>>;

  static std::pair<std::string, std::string> num(std::string k, double v) {
    return {std::move(k), telemetry::json_number(v)};
  }
  static std::pair<std::string, std::string> str(std::string k, const std::string& v) {
    return {std::move(k), telemetry::json_quote(v)};
  }

  BenchReport(std::string bench, std::string metric, std::string unit)
      : bench_(std::move(bench)), metric_(std::move(metric)), unit_(std::move(unit)) {}

  void config(std::string key, const std::string& v) {
    config_.push_back(str(std::move(key), v));
  }
  void config(std::string key, double v) { config_.push_back(num(std::move(key), v)); }

  /// Feed the summary pool. Add every primary-metric observation (per
  /// iteration where available, else per table row).
  void add_sample(double v) { samples_.add(v); }
  /// The summary pool, for a bench that gates on its own summary.
  [[nodiscard]] Samples& samples() { return samples_; }

  /// One table row of the printed output, as structured fields.
  void add_row(Fields fields) { series_.push_back(std::move(fields)); }

  /// Exact-percentile summary fields of a sample pool, for embedding a
  /// per-row distribution into add_row().
  static Fields summary_fields(Samples& s) {
    return {num("count", static_cast<double>(s.count())), num("mean", s.mean()),
            num("p50", s.percentile(50.0)),               num("p99", s.percentile(99.0)),
            num("min", s.percentile(0.0)),                num("max", s.percentile(100.0))};
  }

  [[nodiscard]] std::string json() {
    telemetry::JsonWriter w;
    w.begin_object();
    w.key("schema_version");
    w.value(std::int64_t{1});
    w.key("bench");
    w.value(bench_);
    w.key("metric");
    w.value(metric_);
    w.key("unit");
    w.value(unit_);
    w.key("config");
    write_fields(w, config_);
    w.key("summary");
    write_fields(w, summary_fields(samples_));
    w.key("series");
    w.begin_array();
    for (const auto& row : series_) write_fields(w, row);
    w.end_array();
    w.end_object();
    return w.str();
  }

  /// Write to `path`, or to BENCH_<bench>.json when `path` is empty (pass
  /// the --bench-out= flag value straight through). Prints the destination.
  void write(const std::string& path = {}) {
    const std::string dest = path.empty() ? "BENCH_" + bench_ + ".json" : path;
    std::ofstream out(dest, std::ios::binary | std::ios::trunc);
    out << json() << "\n";
    if (!out) {
      std::fprintf(stderr, "warning: could not write %s\n", dest.c_str());
      return;
    }
    std::printf("\nresults: %s\n", dest.c_str());
  }

 private:
  static void write_fields(telemetry::JsonWriter& w, const Fields& fields) {
    w.begin_object();
    for (const auto& [k, v] : fields) {
      w.key(k);
      w.raw(v);
    }
    w.end_object();
  }

  std::string bench_, metric_, unit_;
  Fields config_;
  Samples samples_;
  std::vector<Fields> series_;
};

/// A bench's CI verdict. Every bound the bench enforces goes through
/// check(), and main returns exit_code(), so the exit status is the whole
/// gate: each failed bound prints a FAIL line and the bench exits 1.
class Gate {
 public:
  /// Records `what` as a failure when `ok` is false.
  void check(bool ok, const std::string& what) {
    if (!ok) {
      std::printf("FAIL: %s\n", what.c_str());
      failed_ = true;
    }
  }
  [[nodiscard]] int exit_code() const { return failed_ ? 1 : 0; }

 private:
  bool failed_ = false;
};

/// A booted two-node cable cluster — the paper's prototype (§V, Fig. 5).
inline std::unique_ptr<cluster::TcCluster> make_cable(
    ht::LinkFreq freq = ht::LinkFreq::kHt800,
    int nb_outbound_depth = opteron::kNbOutboundDepth,
    std::uint64_t shared_bytes = 16_MiB) {
  cluster::TcCluster::Options o;
  o.topology.shape = topology::ClusterShape::kCable;
  o.topology.nx = 2;
  o.topology.dram_per_chip = 64_MiB;
  o.boot.tccluster_freq = freq;
  o.boot.model_code_fetch = false;  // benches do not need boot timing
  o.nb_outbound_depth = nb_outbound_depth;
  o.shared_bytes = shared_bytes;
  auto c = cluster::TcCluster::create(o);
  c.value()->boot().expect("boot");
  return std::move(c).value();
}

/// A booted nx x ny x nz 3-D torus of k-chip Supernodes. Rigs of 16+
/// Supernodes take the staged bring-up path automatically (plan check,
/// per-plane link training, membership epoch). dram_per_chip must hold the
/// per-chip ring region (num_chips * 3 * 4 KiB) plus shared_bytes; the
/// 16 MiB default covers 256 chips.
inline std::unique_ptr<cluster::TcCluster> make_torus3d(
    int nx, int ny, int nz, int k = 4, std::uint64_t dram_per_chip = 16_MiB,
    std::uint64_t shared_bytes = 4_MiB) {
  cluster::TcCluster::Options o;
  o.topology.shape = topology::ClusterShape::kTorus3D;
  o.topology.nx = nx;
  o.topology.ny = ny;
  o.topology.nz = nz;
  o.topology.supernode_size = k;
  o.topology.dram_per_chip = dram_per_chip;
  o.boot.model_code_fetch = false;  // benches do not need boot timing
  o.shared_bytes = shared_bytes;
  auto c = cluster::TcCluster::create(o);
  c.value()->boot().expect("boot");
  return std::move(c).value();
}

/// Sender-side streaming bandwidth through the one-sided put path (the
/// paper's bandwidth microbenchmark: a stream of remote stores, receiver
/// passive). Returns MB/s as the paper plots it (bytes / wall time).
inline double stream_put_mbps(cluster::TcCluster& cl, std::uint64_t message_bytes,
                              std::uint64_t total_bytes, cluster::OrderingMode mode,
                              bool time_store_issue_only = false) {
  auto* ep = cl.msg(0).connect(1).value();
  const std::uint64_t ring_sz = cl.driver(0).ring_region(1).size;
  auto window =
      cl.driver(0).map_remote(1, ring_sz + 4096, cl.driver(1).shared_bytes() - 4096);
  window.expect("map_remote");
  std::vector<std::uint8_t> payload(message_bytes, 0x5a);
  const std::uint64_t iters = std::max<std::uint64_t>(1, total_bytes / message_bytes);
  const std::uint64_t span = window.value().range().size;

  Picoseconds elapsed;
  cl.engine().spawn_fn([&, iters]() -> sim::Task<void> {
    opteron::Core& core = cl.core(0);
    const Picoseconds t0 = cl.engine().now();
    std::uint64_t off = 0;
    for (std::uint64_t i = 0; i < iters; ++i) {
      if (off + message_bytes > span) off = 0;
      if (mode == cluster::OrderingMode::kStrict) {
        // Strict: Sfence after every cache-line store (Fig. 6 mechanism 1).
        (co_await ep->put(window.value(), off, payload, mode)).expect("put");
      } else {
        // Weakly ordered: a pure store stream; WC buffers flush on overflow
        // (Fig. 6 mechanism 2). One fence closes the whole timed window.
        (co_await core.store_bytes(window.value().at(off), payload)).expect("store");
      }
      off += message_bytes;
    }
    if (mode == cluster::OrderingMode::kWeaklyOrdered && !time_store_issue_only) {
      (co_await core.sfence()).expect("sfence");
      // Drain: wait until everything issued actually left the node, so the
      // figure reports wire bandwidth, not queue absorption.
      co_await cl.machine().chip(0).nb().drain_outbound();
    }
    elapsed = cl.engine().now() - t0;
  });
  cl.engine().run();
  const double bytes = static_cast<double>(message_bytes) * static_cast<double>(iters);
  return bytes / elapsed.seconds() / 1e6;
}

/// tcmsg ping-pong half-round-trip latency in nanoseconds (Fig. 7 kernel:
/// "the receive node polls a specific memory location and sends back a
/// response as soon as the first message arrives"). When `per_iter` is
/// given, each iteration's half-RTT lands there too, for exact percentiles.
inline double pingpong_ns(cluster::TcCluster& cl, int node_a, int node_b,
                          std::uint32_t payload_bytes, int iters,
                          Samples* per_iter = nullptr) {
  auto* ea = cl.msg(node_a).connect(node_b).value();
  auto* eb = cl.msg(node_b).connect(node_a).value();
  std::vector<std::uint8_t> payload(payload_bytes, 0xa5);
  Picoseconds elapsed;
  cl.engine().spawn_fn([&, iters]() -> sim::Task<void> {
    // Deterministic inter-iteration jitter OUTSIDE the timed windows: a
    // fully phase-locked simulation would otherwise quantize the receiver's
    // poll-loop alignment and bias the mean (real runs average over OS and
    // DRAM-refresh noise).
    Rng jitter(0x9e37);
    Picoseconds sum = Picoseconds::zero();
    for (int i = 0; i < iters; ++i) {
      co_await cl.engine().delay(Picoseconds{
          static_cast<std::int64_t>(jitter.next_below(150'000))});
      const Picoseconds t0 = cl.engine().now();
      (co_await ea->send(payload)).expect("send");
      (co_await ea->recv_discard()).expect("pong");
      const Picoseconds rtt = cl.engine().now() - t0;
      if (per_iter != nullptr) per_iter->add(rtt.nanoseconds() / 2.0);
      sum += rtt;
    }
    elapsed = sum;
  });
  cl.engine().spawn_fn([&, iters]() -> sim::Task<void> {
    for (int i = 0; i < iters; ++i) {
      (co_await eb->recv_discard()).expect("ping");
      (co_await eb->send(payload)).expect("send");
    }
  });
  cl.engine().run();
  return elapsed.nanoseconds() / (2.0 * iters);
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::setvbuf(stdout, nullptr, _IONBF, 0);  // benches stream progress rows
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

}  // namespace tcc::bench
