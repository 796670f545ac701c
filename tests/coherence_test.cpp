// Tests of the MESI state machine (exhaustive transition table) and the
// probe-broadcast cost model that motivates abandoning coherence (§I/§III).
#include <gtest/gtest.h>

#include "coherence/probe_domain.hpp"
#include "common/strings.hpp"

namespace tcc::coherence {
namespace {

using S = MesiState;
using E = MesiEvent;
using A = MesiAction;

TEST(Mesi, InvalidFillsExclusiveWhenAlone) {
  MesiLine line;
  const auto t = line.apply(E::kLocalRead, /*others_share=*/false);
  EXPECT_EQ(line.state(), S::kExclusive);
  EXPECT_EQ(t.action, A::kBusRead);
}

TEST(Mesi, InvalidFillsSharedWhenOthersHold) {
  MesiLine line;
  line.apply(E::kLocalRead, /*others_share=*/true);
  EXPECT_EQ(line.state(), S::kShared);
}

TEST(Mesi, WriteMissGoesStraightToModified) {
  MesiLine line;
  const auto t = line.apply(E::kLocalWrite);
  EXPECT_EQ(line.state(), S::kModified);
  EXPECT_EQ(t.action, A::kBusReadExclusive);
}

TEST(Mesi, SharedUpgradeBroadcastsInvalidates) {
  MesiLine line;
  line.apply(E::kLocalRead, true);  // -> S
  const auto t = line.apply(E::kLocalWrite);
  EXPECT_EQ(line.state(), S::kModified);
  EXPECT_EQ(t.action, A::kInvalidateBcast);  // the probe traffic of §III
}

TEST(Mesi, ExclusiveUpgradesSilently) {
  MesiLine line;
  line.apply(E::kLocalRead, false);  // -> E
  const auto t = line.apply(E::kLocalWrite);
  EXPECT_EQ(line.state(), S::kModified);
  EXPECT_EQ(t.action, A::kNone);  // no fabric traffic: the E state's purpose
}

TEST(Mesi, ModifiedSuppliesDataOnRemoteRead) {
  MesiLine line;
  line.apply(E::kLocalWrite);  // -> M
  const auto t = line.apply(E::kRemoteRead);
  EXPECT_EQ(line.state(), S::kShared);
  EXPECT_EQ(t.action, A::kWritebackData);
  EXPECT_TRUE(t.supplies_data);
}

TEST(Mesi, RemoteWriteInvalidatesEverywhere) {
  for (bool shared : {false, true}) {
    MesiLine line;
    line.apply(E::kLocalRead, shared);
    line.apply(E::kRemoteWrite);
    EXPECT_EQ(line.state(), S::kInvalid);
  }
  MesiLine m;
  m.apply(E::kLocalWrite);
  const auto t = m.apply(E::kRemoteWrite);
  EXPECT_EQ(m.state(), S::kInvalid);
  EXPECT_EQ(t.action, A::kWritebackData);  // dirty data must be flushed
}

TEST(Mesi, EvictionFromModifiedWritesBack) {
  MesiLine line;
  line.apply(E::kLocalWrite);
  EXPECT_EQ(line.apply(E::kEviction).action, A::kWritebackData);
  EXPECT_EQ(line.state(), S::kInvalid);
}

TEST(Mesi, StableStatesAreStable) {
  // Hits never generate traffic.
  for (auto setup : {E::kLocalRead, E::kLocalWrite}) {
    MesiLine line;
    line.apply(setup, false);
    const S before = line.state();
    const auto t = line.apply(E::kLocalRead, false);
    EXPECT_EQ(line.state(), before == S::kExclusive ? S::kExclusive : before);
    EXPECT_EQ(t.action, A::kNone);
  }
}

// ---------------------------------------------------------------------------
// Probe domain: the scalability argument, parameterized over node count.
// ---------------------------------------------------------------------------

TEST(ProbeDomain, TopologyFactsMatchOpteron) {
  EXPECT_EQ(ProbeDomain(ProbeDomainParams{.nodes = 2}).diameter(), 1);
  EXPECT_EQ(ProbeDomain(ProbeDomainParams{.nodes = 4}).diameter(), 1);
  EXPECT_EQ(ProbeDomain(ProbeDomainParams{.nodes = 8}).diameter(), 2);
  EXPECT_GT(ProbeDomain(ProbeDomainParams{.nodes = 32}).diameter(), 2);
}

TEST(ProbeDomain, LatencyGrowsWithNodeCount) {
  // 2 and 4 sockets are both fully connected (equal latency is correct);
  // beyond that every step must get strictly worse.
  const auto lat = [](int n) {
    return ProbeDomain(ProbeDomainParams{.nodes = n}).store_cost(0.0)
        .store_latency.nanoseconds();
  };
  EXPECT_LE(lat(2), lat(4));
  EXPECT_LT(lat(4), lat(8));
  EXPECT_LT(lat(8), lat(16));
  EXPECT_LT(lat(16), lat(32));
}

TEST(ProbeDomain, ProbeTrafficGrowsLinearlyAndSaturates) {
  // §III: "the number of probe messages is increased proportionally".
  ProbeDomainParams p;
  p.nodes = 4;
  const auto c4 = ProbeDomain(p).store_cost(10e6);
  p.nodes = 8;
  const auto c8 = ProbeDomain(p).store_cost(10e6);
  EXPECT_GT(static_cast<double>(c8.fabric_bytes_per_store),
            1.9 * static_cast<double>(c4.fabric_bytes_per_store));

  // Effective useful bandwidth per node collapses as probes eat the fabric.
  p.nodes = 32;
  const auto c32 = ProbeDomain(p).store_cost(50e6);
  EXPECT_LT(c32.effective_store_bandwidth, c4.effective_store_bandwidth);
}

TEST(ProbeDomain, ProbeFilterCutsTraffic) {
  ProbeDomainParams p;
  p.nodes = 16;
  const auto broadcast = ProbeDomain(p).store_cost(1e6);
  p.probe_filter = true;
  p.expected_sharers = 2;
  const auto filtered = ProbeDomain(p).store_cost(1e6);
  EXPECT_LT(filtered.fabric_bytes_per_store, broadcast.fabric_bytes_per_store / 4);
  EXPECT_LT(filtered.store_latency.count(), broadcast.store_latency.count());
}

class ProbeSimVsModel : public ::testing::TestWithParam<int> {};

TEST_P(ProbeSimVsModel, SimulatedLatencyTracksAnalyticModel) {
  ProbeDomainParams p;
  p.nodes = GetParam();
  ProbeDomain d(p);
  const double analytic = d.store_cost(0.0).store_latency.nanoseconds();
  const double simulated = d.simulate_store_latency(200).nanoseconds();
  // The DES includes contention the analytic uncontended figure lacks, so
  // simulated >= analytic (minus model noise), and within a small factor.
  EXPECT_GT(simulated, 0.6 * analytic) << "n=" << p.nodes;
  EXPECT_LT(simulated, 6.0 * analytic) << "n=" << p.nodes;
}

INSTANTIATE_TEST_SUITE_P(Sizes, ProbeSimVsModel, ::testing::Values(2, 4, 8, 16, 32),
                         [](const auto& info) {
                           return strprintf("n%d", info.param);
                         });

TEST(ProbeDomain, SimulationIsDeterministic) {
  ProbeDomain d(ProbeDomainParams{.nodes = 8});
  EXPECT_EQ(d.simulate_store_latency(100, 7).count(),
            d.simulate_store_latency(100, 7).count());
}

}  // namespace
}  // namespace tcc::coherence
