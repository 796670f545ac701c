// Middleware tests: tcmpi point-to-point + collectives and the tcpgas
// global-address-space layer, on multi-node clusters.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "common/strings.hpp"
#include "middleware/pgas.hpp"

namespace tcc::middleware {
namespace {

std::unique_ptr<cluster::TcCluster> make_cluster(int n) {
  cluster::TcCluster::Options o;
  if (n == 2) {
    o.topology.shape = topology::ClusterShape::kCable;
  } else {
    o.topology.shape = topology::ClusterShape::kRing;
  }
  o.topology.nx = n;
  o.topology.dram_per_chip = 16_MiB;
  auto c = cluster::TcCluster::create(o);
  EXPECT_TRUE(c.ok());
  auto cl = std::move(c.value());
  EXPECT_TRUE(cl->boot().ok());
  return cl;
}

TEST(Tcmpi, SendRecvWithTags) {
  auto cl = make_cluster(2);
  Communicator c0(*cl, 0), c1(*cl, 1);
  const std::vector<std::uint8_t> payload{1, 2, 3};
  std::vector<std::uint8_t> got;
  cl->engine().spawn_fn([&]() -> sim::Task<void> {
    (co_await c0.send(1, payload, 7)).expect("send");
  });
  cl->engine().spawn_fn([&]() -> sim::Task<void> {
    auto r = co_await c1.recv(0, 7);
    EXPECT_TRUE(r.ok());
    if (r.ok()) got = r.value();
  });
  cl->engine().run();
  EXPECT_EQ(got, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(Tcmpi, TagMismatchIsAnError) {
  auto cl = make_cluster(2);
  Communicator c0(*cl, 0), c1(*cl, 1);
  bool checked = false;
  cl->engine().spawn_fn([&]() -> sim::Task<void> {
    (co_await c0.send_u64(1, 42, 1)).expect("send");
  });
  cl->engine().spawn_fn([&]() -> sim::Task<void> {
    auto r = co_await c1.recv_u64(0, 2);
    EXPECT_FALSE(r.ok());
    checked = true;
  });
  cl->engine().run();
  EXPECT_TRUE(checked);
}

TEST(Tcmpi, LargeMessageStreamsAcrossSegments) {
  auto cl = make_cluster(2);
  Communicator c0(*cl, 0), c1(*cl, 1);
  std::vector<std::uint8_t> big(100'000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i * 13);
  std::vector<std::uint8_t> got;
  cl->engine().spawn_fn([&]() -> sim::Task<void> {
    (co_await c0.send(1, big, 3)).expect("send");
  });
  cl->engine().spawn_fn([&]() -> sim::Task<void> {
    auto r = co_await c1.recv(0, 3);
    EXPECT_TRUE(r.ok());
    if (r.ok()) got = std::move(r.value());
  });
  cl->engine().run();
  EXPECT_EQ(got, big);
}

TEST(Tcmpi, EightByteMessageIsNotMistakenForStreamHeader) {
  // Regression guard for the envelope framing: a u64 payload with a huge
  // value must arrive as data, not be parsed as a stream length.
  auto cl = make_cluster(2);
  Communicator c0(*cl, 0), c1(*cl, 1);
  std::uint64_t got = 0;
  cl->engine().spawn_fn([&]() -> sim::Task<void> {
    (co_await c0.send_u64(1, 0xFFFFFFFFFFull, 0)).expect("send");
  });
  cl->engine().spawn_fn([&]() -> sim::Task<void> {
    auto r = co_await c1.recv_u64(0, 0);
    EXPECT_TRUE(r.ok());
    if (r.ok()) got = r.value();
  });
  cl->engine().run();
  EXPECT_EQ(got, 0xFFFFFFFFFFull);
}

class CollectiveSweep : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveSweep, BarrierBcastReduceGatherAlltoall) {
  const int n = GetParam();
  auto cl = make_cluster(n);
  std::vector<std::unique_ptr<Communicator>> comms;
  for (int r = 0; r < n; ++r) comms.push_back(std::make_unique<Communicator>(*cl, r));

  std::vector<int> barrier_done(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> allreduce_results(static_cast<std::size_t>(n), 0);
  std::vector<std::vector<std::uint8_t>> bcast_results(static_cast<std::size_t>(n));
  std::vector<std::uint64_t> gather_at_root;
  std::vector<int> alltoall_ok(static_cast<std::size_t>(n), 0);

  for (int r = 0; r < n; ++r) {
    cl->engine().spawn_fn([&, r]() -> sim::Task<void> {
      Communicator& comm = *comms[static_cast<std::size_t>(r)];

      (co_await comm.barrier()).expect("barrier");
      barrier_done[static_cast<std::size_t>(r)] = 1;

      // Broadcast rank-0's payload.
      std::vector<std::uint8_t> data;
      if (r == 0) data = {42, 43, 44};
      (co_await comm.bcast(data, 0)).expect("bcast");
      bcast_results[static_cast<std::size_t>(r)] = data;

      // Allreduce: sum of ranks.
      auto sum = co_await comm.allreduce_u64(static_cast<std::uint64_t>(r),
                                             ReduceOp::kSum);
      EXPECT_TRUE(sum.ok());
      if (sum.ok()) allreduce_results[static_cast<std::size_t>(r)] = sum.value();

      // Gather squares at root 0.
      auto g = co_await comm.gather_u64(static_cast<std::uint64_t>(r) * r, 0);
      EXPECT_TRUE(g.ok());
      if (r == 0 && g.ok()) gather_at_root = g.value();

      // All-to-all: block to rank i = {r, i}.
      std::vector<std::vector<std::uint8_t>> blocks(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i) {
        blocks[static_cast<std::size_t>(i)] = {static_cast<std::uint8_t>(r),
                                               static_cast<std::uint8_t>(i)};
      }
      auto a2a = co_await comm.alltoall(blocks);
      EXPECT_TRUE(a2a.ok());
      if (a2a.ok()) {
        bool ok = true;
        for (int src = 0; src < n; ++src) {
          const auto& blk = a2a.value()[static_cast<std::size_t>(src)];
          ok = ok && blk.size() == 2 && blk[0] == static_cast<std::uint8_t>(src) &&
               blk[1] == static_cast<std::uint8_t>(r);
        }
        alltoall_ok[static_cast<std::size_t>(r)] = ok ? 1 : 0;
      }
    });
  }
  cl->engine().run();

  const std::uint64_t expect_sum = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(barrier_done[static_cast<std::size_t>(r)], 1) << r;
    EXPECT_EQ(bcast_results[static_cast<std::size_t>(r)],
              (std::vector<std::uint8_t>{42, 43, 44}))
        << r;
    EXPECT_EQ(allreduce_results[static_cast<std::size_t>(r)], expect_sum) << r;
    EXPECT_EQ(alltoall_ok[static_cast<std::size_t>(r)], 1) << r;
  }
  ASSERT_EQ(gather_at_root.size(), static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(gather_at_root[static_cast<std::size_t>(r)],
              static_cast<std::uint64_t>(r) * r);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveSweep, ::testing::Values(2, 3, 4, 5, 8),
                         [](const auto& info) {
                           return strprintf("n%d", info.param);
                         });

TEST(Tcpgas, PutGetBarrierAcrossNodes) {
  constexpr int n = 3;
  auto cl = make_cluster(n);
  std::vector<std::unique_ptr<PgasRuntime>> rts;
  for (int r = 0; r < n; ++r) {
    rts.push_back(std::make_unique<PgasRuntime>(*cl, r));
    rts.back()->start_service();
  }

  constexpr std::uint64_t kElems = 30;
  std::vector<int> ok(static_cast<std::size_t>(n), 0);

  for (int r = 0; r < n; ++r) {
    cl->engine().spawn_fn([&, r]() -> sim::Task<void> {
      PgasRuntime& rt = *rts[static_cast<std::size_t>(r)];
      auto arr_result = rt.allocate(kElems);
      EXPECT_TRUE(arr_result.ok());
      GlobalArray arr = arr_result.value();

      // Each rank writes elements it does NOT own: index i gets value i*10.
      for (std::uint64_t i = 0; i < kElems; ++i) {
        if (arr.owner_of(i) != r && (i % static_cast<std::uint64_t>(n)) ==
                                        static_cast<std::uint64_t>(r)) {
          (co_await arr.put(i, i * 10)).expect("put");
        }
      }
      (co_await rt.barrier()).expect("barrier");  // puts become visible

      // Fill in locally owned slots written by nobody (i % n == owner).
      for (std::uint64_t i = 0; i < kElems; ++i) {
        if (arr.owner_of(i) == static_cast<int>(i % static_cast<std::uint64_t>(n)) &&
            arr.owner_of(i) == r) {
          (co_await arr.put(i, i * 10)).expect("put");
        }
      }
      (co_await rt.barrier()).expect("barrier");

      // Every rank reads every element (locals + remote active messages).
      bool all_ok = true;
      for (std::uint64_t i = 0; i < kElems; ++i) {
        auto v = co_await arr.get(i);
        EXPECT_TRUE(v.ok());
        if (!v.ok() || v.value() != i * 10) all_ok = false;
      }
      ok[static_cast<std::size_t>(r)] = all_ok ? 1 : 0;

      (co_await rt.finalize()).expect("finalize");
    });
  }
  cl->engine().run();
  for (int r = 0; r < n; ++r) EXPECT_EQ(ok[static_cast<std::size_t>(r)], 1) << r;
  // Remote gets actually went through the active-message service.
  std::uint64_t served = 0;
  for (auto& rt : rts) served += rt->gets_served();
  EXPECT_GT(served, 0u);
}

TEST(Tcpgas, FetchAddIsAtomicUnderContention) {
  constexpr int n = 4;
  auto cl = make_cluster(n);
  std::vector<std::unique_ptr<PgasRuntime>> rts;
  for (int r = 0; r < n; ++r) {
    rts.push_back(std::make_unique<PgasRuntime>(*cl, r));
    rts.back()->start_service();
  }
  constexpr std::uint64_t kAddsPerRank = 40;
  for (int r = 0; r < n; ++r) {
    cl->engine().spawn_fn([&, r]() -> sim::Task<void> {
      PgasRuntime& rt = *rts[static_cast<std::size_t>(r)];
      auto arr = rt.allocate(8);
      EXPECT_TRUE(arr.ok());
      GlobalArray counters = arr.value();
      // All ranks hammer counter 0 (owned by rank 0): every increment must
      // survive — the service-loop mutex makes read-modify-write atomic.
      for (std::uint64_t i = 0; i < kAddsPerRank; ++i) {
        auto old = co_await counters.fetch_add(0, 1);
        EXPECT_TRUE(old.ok());
      }
      (co_await rt.barrier()).expect("barrier");
      auto total = co_await counters.get(0);
      EXPECT_TRUE(total.ok());
      if (total.ok()) {
        EXPECT_EQ(total.value(), kAddsPerRank * n);
      }
      (co_await rt.finalize()).expect("finalize");
    });
  }
  cl->engine().run();
}

TEST(Tcpgas, SwapReturnsOldValue) {
  auto cl = make_cluster(2);
  PgasRuntime rt0(*cl, 0), rt1(*cl, 1);
  rt0.start_service();
  rt1.start_service();
  bool done0 = false, done1 = false;
  // Both ranks allocate symmetrically; rank 1 swaps a value owned by rank 0.
  cl->engine().spawn_fn([&]() -> sim::Task<void> {
    auto arr = rt0.allocate(4);
    EXPECT_TRUE(arr.ok());
    GlobalArray a = arr.value();
    (co_await a.put(0, 111)).expect("put");
    (co_await rt0.barrier()).expect("barrier");
    (co_await rt0.barrier()).expect("barrier2");
    auto v = co_await a.get(0);
    EXPECT_TRUE(v.ok());
    if (v.ok()) {
      EXPECT_EQ(v.value(), 222u);
    }
    (co_await rt0.finalize()).expect("finalize");
    done0 = true;
  });
  cl->engine().spawn_fn([&]() -> sim::Task<void> {
    auto arr = rt1.allocate(4);
    EXPECT_TRUE(arr.ok());
    GlobalArray a = arr.value();
    (co_await rt1.barrier()).expect("barrier");
    auto old = co_await a.swap(0, 222);
    EXPECT_TRUE(old.ok());
    if (old.ok()) {
      EXPECT_EQ(old.value(), 111u);
    }
    (co_await rt1.barrier()).expect("barrier2");
    (co_await rt1.finalize()).expect("finalize");
    done1 = true;
  });
  cl->engine().run();
  EXPECT_TRUE(done0);
  EXPECT_TRUE(done1);
}

TEST(Tcmpi, CollectivesOnATorus) {
  cluster::TcCluster::Options o;
  o.topology.shape = topology::ClusterShape::kTorus2D;
  o.topology.nx = 2;
  o.topology.ny = 2;
  o.topology.supernode_size = 2;
  o.topology.dram_per_chip = 16_MiB;
  auto created = cluster::TcCluster::create(o);
  ASSERT_TRUE(created.ok()) << created.error().to_string();
  auto cl = std::move(created.value());
  ASSERT_TRUE(cl->boot().ok());

  const int n = cl->num_nodes();  // 8 chips
  std::vector<std::unique_ptr<Communicator>> comms;
  for (int r = 0; r < n; ++r) comms.push_back(std::make_unique<Communicator>(*cl, r));
  std::vector<std::uint64_t> sums(static_cast<std::size_t>(n), 0);
  for (int r = 0; r < n; ++r) {
    cl->engine().spawn_fn([&, r]() -> sim::Task<void> {
      auto s = co_await comms[static_cast<std::size_t>(r)]->allreduce_u64(
          static_cast<std::uint64_t>(r) + 1, ReduceOp::kSum);
      EXPECT_TRUE(s.ok());
      if (s.ok()) sums[static_cast<std::size_t>(r)] = s.value();
    });
  }
  cl->engine().run();
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(sums[static_cast<std::size_t>(r)],
              static_cast<std::uint64_t>(n) * (n + 1) / 2);
  }
}

TEST(Tcpgas, AllocateFailsWhenHeapExhausted) {
  auto cl = make_cluster(2);
  PgasRuntime rt(*cl, 0);
  // shared_bytes defaults to 4 MiB -> 512Ki u64 per node.
  auto big = rt.allocate(2'000'000);  // 1M u64 per node = 8 MiB > 4 MiB
  EXPECT_FALSE(big.ok());
  auto fits = rt.allocate(100);
  EXPECT_TRUE(fits.ok());
}

}  // namespace
}  // namespace tcc::middleware
