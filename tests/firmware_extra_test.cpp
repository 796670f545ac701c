// Additional firmware-layer tests: machine assembly helpers, the southbridge
// device, boot option sweeps and larger machines.
#include <gtest/gtest.h>

#include "firmware/boot.hpp"

namespace tcc::firmware {
namespace {

topology::ClusterConfig cable(std::uint64_t dram = 32_MiB) {
  topology::ClusterConfig c;
  c.shape = topology::ClusterShape::kCable;
  c.dram_per_chip = dram;
  return c;
}

/// Registers-only boot: no stage-code fetch timing.
BootOptions registers_only(ht::LinkFreq freq = BootOptions{}.tccluster_freq) {
  BootOptions o;
  o.tccluster_freq = freq;
  o.model_code_fetch = false;
  return o;
}

TEST(Machine, AssemblyMatchesThePlan) {
  sim::Engine engine;
  topology::ClusterConfig c;
  c.shape = topology::ClusterShape::kRing;
  c.nx = 4;
  c.dram_per_chip = 8_MiB;
  auto plan = topology::ClusterPlan::build(c);
  ASSERT_TRUE(plan.ok());
  Machine m(engine, std::move(plan.value()));

  EXPECT_EQ(m.num_chips(), 4);
  EXPECT_EQ(m.num_links(), 4);                    // ring of four
  EXPECT_EQ(m.tccluster_links().size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(m.southbridge(i).rom().size());  // not flashed yet
  }

  // peer_of / link_at agree with the wire list.
  for (const auto& w : m.plan().wires()) {
    auto peer = m.peer_of(w.a);
    ASSERT_TRUE(peer.has_value());
    EXPECT_EQ(*peer, w.b);
    EXPECT_EQ(m.link_at(w.a), m.link_at(w.b));
    EXPECT_NE(m.link_at(w.a), nullptr);
  }
  // Unwired ports have no peer.
  EXPECT_FALSE(m.peer_of(topology::PortRef{0, 3}).has_value());
  EXPECT_EQ(m.link_at(topology::PortRef{0, 3}), nullptr);
}

TEST(Southbridge, ServesRomReadsWithFlashLatency) {
  sim::Engine engine;
  Southbridge sb(engine, "sb");
  ht::HtEndpoint cpu(engine, "cpu", ht::EndpointDevice::kProcessor);
  ht::HtLink link(engine, cpu, sb.endpoint());
  link.train();

  std::vector<std::uint8_t> rom(256);
  for (std::size_t i = 0; i < rom.size(); ++i) rom[i] = static_cast<std::uint8_t>(i);
  sb.load_rom(rom);

  std::vector<std::uint8_t> got;
  Picoseconds when;
  engine.spawn_fn([&]() -> sim::Task<void> {
    ht::Packet p = co_await cpu.receive();
    got = p.data;
    when = engine.now();
  });
  ASSERT_TRUE(cpu.send(ht::Packet::sized_read(PhysAddr{kRomWindowBase + 16}, 8,
                                              ht::SourceTag{0, 0, 1}))
                  .ok());
  engine.run();
  ASSERT_EQ(got.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(got[static_cast<std::size_t>(i)], 16 + i);
  EXPECT_GT(when, kRomReadLatency);  // flash is slow
  EXPECT_EQ(sb.rom_reads(), 1u);
}

TEST(Southbridge, ReadsBeyondTheImageReturnErasedFlash) {
  sim::Engine engine;
  Southbridge sb(engine, "sb");
  ht::HtEndpoint cpu(engine, "cpu", ht::EndpointDevice::kProcessor);
  ht::HtLink link(engine, cpu, sb.endpoint());
  link.train();
  sb.load_rom(std::vector<std::uint8_t>(16, 0x00));

  std::vector<std::uint8_t> got;
  engine.spawn_fn([&]() -> sim::Task<void> {
    ht::Packet p = co_await cpu.receive();
    got = p.data;
  });
  ASSERT_TRUE(cpu.send(ht::Packet::sized_read(PhysAddr{kRomWindowBase + 0x1000}, 8,
                                              ht::SourceTag{0, 0, 2}))
                  .ok());
  engine.run();
  for (auto b : got) EXPECT_EQ(b, 0xff);  // erased NOR flash
}

TEST(Southbridge, FlushGetsTargetDone) {
  sim::Engine engine;
  Southbridge sb(engine, "sb");
  ht::HtEndpoint cpu(engine, "cpu", ht::EndpointDevice::kProcessor);
  ht::HtLink link(engine, cpu, sb.endpoint());
  link.train();
  bool done = false;
  engine.spawn_fn([&]() -> sim::Task<void> {
    ht::Packet p = co_await cpu.receive();
    done = p.command == ht::Command::kTargetDone;
  });
  ht::Packet flush;
  flush.command = ht::Command::kFlush;
  flush.src = ht::SourceTag{0, 0, 3};
  ASSERT_TRUE(cpu.send(std::move(flush)).ok());
  engine.run();
  EXPECT_TRUE(done);
}

TEST(Boot, SkippingCodeFetchStillLeavesCorrectRegisterState) {
  sim::Engine engine;
  auto plan = topology::ClusterPlan::build(cable());
  ASSERT_TRUE(plan.ok());
  Machine machine(engine, std::move(plan.value()));
  BootSequencer boot(machine, registers_only());
  ASSERT_TRUE(boot.run().ok());
  // Orders of magnitude faster than a modeled boot...
  EXPECT_LT(boot.trace().back().end.microseconds(), 500.0);
  // ...with identical register outcomes.
  for (int c = 0; c < machine.num_chips(); ++c) {
    EXPECT_TRUE(machine.chip(c).nb().regs().tccluster_mode);
    EXPECT_EQ(machine.chip(c).nb().regs().node_id, 0);
  }
}

TEST(Boot, FrequencySweepTrainsWhatTheMediumAllows) {
  for (auto [requested, expected] :
       {std::pair{ht::LinkFreq::kHt400, ht::LinkFreq::kHt400},
        std::pair{ht::LinkFreq::kHt800, ht::LinkFreq::kHt800},
        std::pair{ht::LinkFreq::kHt2400, ht::LinkFreq::kHt800}}) {  // cable cap
    sim::Engine engine;
    auto plan = topology::ClusterPlan::build(cable());
    ASSERT_TRUE(plan.ok());
    Machine machine(engine, std::move(plan.value()));
    BootSequencer boot(machine, registers_only(requested));
    ASSERT_TRUE(boot.run().ok());
    for (ht::HtLink* l : machine.tccluster_links()) {
      EXPECT_EQ(l->side_a().regs().freq, expected)
          << "requested " << ht::to_string(requested);
    }
  }
}

TEST(Boot, DualCableBootsBothLinksNonCoherent) {
  sim::Engine engine;
  topology::ClusterConfig c = cable();
  c.cable_links = 2;
  auto plan = topology::ClusterPlan::build(c);
  ASSERT_TRUE(plan.ok());
  Machine machine(engine, std::move(plan.value()));
  BootSequencer boot(machine, registers_only());
  ASSERT_TRUE(boot.run().ok());
  auto links = machine.tccluster_links();
  ASSERT_EQ(links.size(), 2u);
  for (ht::HtLink* l : links) {
    EXPECT_EQ(l->side_a().regs().kind, ht::LinkKind::kNonCoherent);
  }
}

TEST(Boot, TorusOfSupernodesBoots) {
  sim::Engine engine;
  topology::ClusterConfig c;
  c.shape = topology::ClusterShape::kTorus2D;
  c.nx = 2;
  c.ny = 2;
  c.supernode_size = 2;
  c.dram_per_chip = 8_MiB;
  auto plan = topology::ClusterPlan::build(c);
  ASSERT_TRUE(plan.ok());
  Machine machine(engine, std::move(plan.value()));
  BootSequencer boot(machine, registers_only());
  Status st = boot.run();
  ASSERT_TRUE(st.ok()) << st.error().to_string();
  // 8 chips, every chip's member NodeID and TCCluster flags programmed.
  for (int chip = 0; chip < machine.num_chips(); ++chip) {
    const auto& cp = machine.plan().chips()[static_cast<std::size_t>(chip)];
    EXPECT_EQ(machine.chip(chip).nb().regs().node_id, cp.member);
    EXPECT_EQ(machine.chip(chip).nb().regs().tccluster_links, cp.tccluster_ports);
  }
}

TEST(Boot, EightNodeRingBootTimeIsFlat) {
  // Supernodes boot in parallel (§V: both machines power up simultaneously);
  // total boot time must not scale with node count.
  auto boot_time_us = [](int n) {
    sim::Engine engine;
    topology::ClusterConfig c;
    c.shape = topology::ClusterShape::kRing;
    c.nx = n;
    c.dram_per_chip = 8_MiB;
    auto plan = topology::ClusterPlan::build(c);
    Machine machine(engine, std::move(plan.value()));
    BootSequencer boot(machine);
    boot.run().expect("boot");
    return boot.trace().back().end.microseconds();
  };
  const double t3 = boot_time_us(3);
  const double t8 = boot_time_us(8);
  EXPECT_LT(t8, 1.2 * t3);
}

TEST(BootTrace, StageNotesEmptyOnSuccess) {
  sim::Engine engine;
  auto plan = topology::ClusterPlan::build(cable());
  ASSERT_TRUE(plan.ok());
  Machine machine(engine, std::move(plan.value()));
  BootSequencer boot(machine, registers_only());
  ASSERT_TRUE(boot.run().ok());
  for (const auto& rec : boot.trace()) {
    EXPECT_TRUE(rec.note.empty()) << to_string(rec.stage) << ": " << rec.note;
  }
}

}  // namespace
}  // namespace tcc::firmware
