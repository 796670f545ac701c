#include "firmware/boot.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "common/log.hpp"
#include "common/strings.hpp"
#include "opteron/timing.hpp"

namespace tcc::firmware {

namespace {

/// DDR2 link/DQS training time per node (order-of-magnitude realistic).
constexpr Picoseconds kDdrTrainingTime = Picoseconds::from_us(50.0);
constexpr Picoseconds kPostInitTime = Picoseconds::from_us(20.0);

Status merge(const std::vector<Status>& statuses) {
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return {};
}

}  // namespace

BootSequencer::BootSequencer(Machine& machine, BootOptions options)
    : machine_(machine),
      options_(options),
      image_(FirmwareImage::make_default()),
      car_exited_(static_cast<std::size_t>(machine.plan().supernodes().size()), false) {}

Status BootSequencer::run() {
  // Flash the ROMs.
  const std::vector<std::uint8_t> rom = image_.serialize();
  for (std::size_t s = 0; s < machine_.plan().supernodes().size(); ++s) {
    machine_.southbridge(static_cast<int>(s)).load_rom(rom);
  }
  Status result;
  bool done = false;
  machine_.engine().spawn_fn([this, &result, &done]() -> sim::Task<void> {
    result = co_await boot();
    done = true;
  });
  machine_.engine().run();
  TCC_ASSERT(done, "boot process did not complete — simulation deadlock");
  return result;
}

Status BootSequencer::train_all(bool warm) {
  for (int i = 0; i < machine_.num_links(); ++i) {
    machine_.link(i).train();
  }
  for (std::size_t s = 0; s < machine_.plan().supernodes().size(); ++s) {
    machine_.southbridge_link(static_cast<int>(s)).train();
  }
  (void)warm;
  return {};
}

bool BootSequencer::staged() const {
  return options_.staged_bringup.value_or(
      static_cast<int>(machine_.plan().supernodes().size()) >= kStagedBringupThreshold);
}

Status BootSequencer::plan_check() const {
  const topology::ClusterPlan& plan = machine_.plan();
  for (const topology::ChipPlan& cp : plan.chips()) {
    // Register budgets, counted the way northbridge-init will program them
    // (the ROM decode window costs the southbridge-attached chips one MMIO
    // pair; every chip spends one DRAM pair on its own memory).
    const int mmio_used = static_cast<int>(cp.mmio.size()) +
                          (cp.southbridge_port.has_value() ? 1 : 0);
    if (mmio_used > opteron::kNumMmioRanges) {
      return make_error(ErrorCode::kResourceExhausted,
                        strprintf("plan check: chip %d needs %d MMIO range pairs",
                                  cp.chip, mmio_used));
    }
    const int dram_used = 1 + static_cast<int>(cp.peer_dram.size()) +
                          static_cast<int>(cp.dram_routes.size());
    if (dram_used > opteron::kNumDramRanges) {
      return make_error(ErrorCode::kResourceExhausted,
                        strprintf("plan check: chip %d needs %d DRAM range pairs",
                                  cp.chip, dram_used));
    }
    // Every DRAM-pair spill route must name a NodeID whose routing-table
    // entry sends requests out the intended egress port.
    for (const auto& dr : cp.dram_routes) {
      if (dr.node_id < 0 || dr.node_id >= opteron::kMaxCoherentNodes ||
          cp.route_to_member[static_cast<std::size_t>(dr.node_id)] != dr.port) {
        return make_error(
            ErrorCode::kConfigConflict,
            strprintf("plan check: chip %d spill alias NodeID %d does not route "
                      "to port %d",
                      cp.chip, dr.node_id, dr.port));
      }
    }
    // Decode windows must be disjoint: one address, one egress decision.
    std::vector<AddrRange> windows;
    windows.push_back(cp.dram);
    for (const auto& peer : cp.peer_dram) windows.push_back(peer.range);
    for (const auto& dr : cp.dram_routes) windows.push_back(dr.range);
    for (const auto& m : cp.mmio) windows.push_back(m.range);
    for (std::size_t i = 0; i < windows.size(); ++i) {
      for (std::size_t j = i + 1; j < windows.size(); ++j) {
        const bool overlap = windows[i].base.value() < windows[j].end().value() &&
                             windows[j].base.value() < windows[i].end().value();
        if (overlap) {
          return make_error(ErrorCode::kConfigConflict,
                            strprintf("plan check: chip %d has overlapping decode "
                                      "windows [%#llx,%#llx) and [%#llx,%#llx)",
                                      cp.chip,
                                      static_cast<unsigned long long>(
                                          windows[i].base.value()),
                                      static_cast<unsigned long long>(
                                          windows[i].end().value()),
                                      static_cast<unsigned long long>(
                                          windows[j].base.value()),
                                      static_cast<unsigned long long>(
                                          windows[j].end().value())));
        }
      }
    }
  }
  return {};
}

template <typename StageFn>
sim::Task<Status> BootSequencer::run_stage(BootStage stage, StageFn fn) {
  const int num_sn = static_cast<int>(machine_.plan().supernodes().size());
  StageRecord rec{stage, machine_.engine().now(), Picoseconds::zero(), ""};
  auto statuses = std::make_unique<std::vector<Status>>(
      static_cast<std::size_t>(num_sn), Status{});
  sim::Joiner joiner(machine_.engine());
  for (int s = 0; s < num_sn; ++s) {
    joiner.launch_fn([this, fn, s, out = statuses.get()]() -> sim::Task<void> {
      (*out)[static_cast<std::size_t>(s)] = co_await (this->*fn)(s);
    });
  }
  co_await joiner.wait_all();
  rec.end = machine_.engine().now();
  Status st = merge(*statuses);
  if (!st.ok()) rec.note = st.error().to_string();
  trace_.push_back(std::move(rec));
  co_return st;
}

sim::Task<Status> BootSequencer::boot() {
  // -- Staged bring-up: validate the plan before touching the machine -------
  if (staged()) {
    StageRecord rec{BootStage::kPlanCheck, machine_.engine().now(),
                    machine_.engine().now(), ""};
    Status check = plan_check();
    rec.note = check.ok()
                   ? strprintf("%d Supernodes / %d chips validated",
                               static_cast<int>(machine_.plan().supernodes().size()),
                               machine_.num_chips())
                   : check.error().to_string();
    trace_.push_back(std::move(rec));
    if (!check.ok()) co_return check;
  }

  // -- Cold reset edge: low-level link init happens in hardware -------------
  Status st = co_await run_stage(BootStage::kColdReset, &BootSequencer::stage_cold_reset);
  if (!st.ok()) co_return st;
  train_all(/*warm=*/false);
  co_await machine_.engine().delay(ht::kLinkTrainingTime);

  st = co_await run_stage(BootStage::kCoherentEnumeration,
                          &BootSequencer::stage_coherent_enumeration);
  if (!st.ok()) co_return st;

  st = co_await run_stage(BootStage::kForceNonCoherent,
                          &BootSequencer::stage_force_noncoherent);
  if (!st.ok()) co_return st;

  // -- Synchronized warm reset (§IV.E) --------------------------------------
  {
    StageRecord rec{BootStage::kWarmReset, machine_.engine().now(), Picoseconds::zero(), ""};
    if (!options_.synchronized_reset) {
      // One Supernode resets while the other is still running: the training
      // handshake finds no partner driving the init pattern.
      for (ht::HtLink* l : machine_.tccluster_links()) {
        l->side_a().regs().init_complete = false;
        l->side_b().regs().init_complete = false;
        l->side_a().regs().connected = false;
        l->side_b().regs().connected = false;
      }
      rec.end = machine_.engine().now();
      rec.note = "unsynchronized warm reset: TCCluster links failed to train";
      trace_.push_back(std::move(rec));
      co_return make_error(ErrorCode::kFailedPrecondition,
                           "warm reset was not synchronized across Supernodes; "
                           "TCCluster links did not connect (§IV.E)");
    }
    for (int c = 0; c < machine_.num_chips(); ++c) {
      machine_.chip(c).warm_reset();
    }
    if (staged()) {
      // Staged bring-up trains only the intra-Supernode fabric and the
      // southbridges here; external TCCluster links come up plane by plane
      // right after (the kLinkTrainPlane records).
      const auto& wires = machine_.plan().wires();
      for (int i = 0; i < machine_.num_links(); ++i) {
        if (!wires[static_cast<std::size_t>(i)].tccluster) machine_.link(i).train();
      }
      for (std::size_t s = 0; s < machine_.plan().supernodes().size(); ++s) {
        machine_.southbridge_link(static_cast<int>(s)).train();
      }
    } else {
      train_all(/*warm=*/true);
    }
    co_await machine_.engine().delay(ht::kLinkTrainingTime);
    // Hardware default map back in place so the BSP can keep fetching.
    for (const topology::ChipPlan& cp : machine_.plan().chips()) {
      if (cp.southbridge_port.has_value()) {
        (void)machine_.chip(cp.chip).nb().regs().add_mmio_range(
            AddrRange{PhysAddr{kRomWindowBase}, kRomWindowSize}, *cp.southbridge_port,
            /*non_posted_allowed=*/true);
      }
    }
    // Verify the trick worked: every TCCluster link must now be non-coherent.
    // (Staged bring-up verifies per plane below, after each plane trains.)
    if (!staged()) {
      for (ht::HtLink* l : machine_.tccluster_links()) {
        if (l->side_a().regs().kind != ht::LinkKind::kNonCoherent) {
          rec.note = "TCCluster link still coherent after warm reset";
          trace_.push_back(std::move(rec));
          co_return make_error(ErrorCode::kFailedPrecondition, rec.note);
        }
      }
    }
    rec.end = machine_.engine().now();
    trace_.push_back(std::move(rec));
  }

  // -- Staged bring-up: train external links one plane at a time ------------
  if (staged()) {
    const topology::ClusterPlan& plan = machine_.plan();
    // The plane axis is the outermost dimension with extent > 1.
    int outer_dim = 0;
    for (int d = 2; d >= 1 && outer_dim == 0; --d) {
      for (std::size_t s = 0; s < plan.supernodes().size(); ++s) {
        if (plan.supernode_coords(static_cast<int>(s))[static_cast<std::size_t>(d)] !=
            0) {
          outer_dim = d;
          break;
        }
      }
    }
    // Each external wire belongs to the plane of its lower endpoint (wrap
    // wires close the last plane back to the first).
    std::map<int, std::vector<int>> planes;
    const auto& wires = plan.wires();
    for (int i = 0; i < machine_.num_links(); ++i) {
      const topology::WireSpec& w = wires[static_cast<std::size_t>(i)];
      if (!w.tccluster) continue;
      const int sn_a = plan.chips()[static_cast<std::size_t>(w.a.chip)].supernode;
      planes[plan.supernode_coords(sn_a)[static_cast<std::size_t>(outer_dim)]]
          .push_back(i);
    }
    for (const auto& [coord, link_ids] : planes) {
      StageRecord rec{BootStage::kLinkTrainPlane, machine_.engine().now(),
                      Picoseconds::zero(), ""};
      for (int i : link_ids) machine_.link(i).train();
      co_await machine_.engine().delay(ht::kLinkTrainingTime);
      for (int i : link_ids) {
        if (machine_.link(i).side_a().regs().kind != ht::LinkKind::kNonCoherent) {
          const std::string note =
              strprintf("plane %d: TCCluster link %d still coherent", coord, i);
          rec.end = machine_.engine().now();
          rec.note = note;
          trace_.push_back(std::move(rec));
          co_return make_error(ErrorCode::kFailedPrecondition, note);
        }
      }
      rec.end = machine_.engine().now();
      rec.note = strprintf("plane %d: %d links trained", coord,
                           static_cast<int>(link_ids.size()));
      trace_.push_back(std::move(rec));
    }
  }

  st = co_await run_stage(BootStage::kNorthbridgeInit,
                          &BootSequencer::stage_northbridge_init);
  if (!st.ok()) co_return st;
  st = co_await run_stage(BootStage::kCpuMsrInit, &BootSequencer::stage_cpu_msr_init);
  if (!st.ok()) co_return st;
  st = co_await run_stage(BootStage::kMemoryInit, &BootSequencer::stage_memory_init);
  if (!st.ok()) co_return st;
  st = co_await run_stage(BootStage::kExitCar, &BootSequencer::stage_exit_car);
  if (!st.ok()) co_return st;
  st = co_await run_stage(BootStage::kNonCoherentEnumeration,
                          &BootSequencer::stage_noncoherent_enumeration);
  if (!st.ok()) co_return st;
  st = co_await run_stage(BootStage::kPostInitialization, &BootSequencer::stage_post_init);
  if (!st.ok()) co_return st;
  st = co_await run_stage(BootStage::kLoadOperatingSystem, &BootSequencer::stage_load_os);
  if (!st.ok()) co_return st;

  // -- Staged bring-up: publish the first membership epoch ------------------
  if (staged()) {
    const Picoseconds now = machine_.engine().now();
    trace_.push_back(StageRecord{
        BootStage::kMembershipEpoch, now, now,
        strprintf("epoch 0: %d Supernodes / %d chips joined",
                  static_cast<int>(machine_.plan().supernodes().size()),
                  machine_.num_chips())});
  }

  booted_ = true;
  co_return Status{};
}

sim::Task<Status> BootSequencer::fetch_code(int sn, std::uint32_t bytes) {
  if (!options_.model_code_fetch) co_return Status{};
  opteron::Core& core = machine_.bsp_core(sn);
  const topology::SupernodePlan& snp =
      machine_.plan().supernodes()[static_cast<std::size_t>(sn)];
  // One 8-byte uncacheable load stands in for each 64-byte line fetch.
  const std::uint32_t lines = (bytes + 63) / 64;
  for (std::uint32_t l = 0; l < lines; ++l) {
    PhysAddr addr;
    if (car_exited_[static_cast<std::size_t>(sn)]) {
      addr = snp.range.base + (static_cast<std::uint64_t>(l) * 64) % (snp.range.size - 8);
    } else {
      addr = PhysAddr{kRomWindowBase + (static_cast<std::uint64_t>(l) * 64) %
                                           (kRomWindowSize - 8)};
    }
    auto r = co_await core.load_u64(addr);
    if (!r.ok()) {
      co_return make_error(r.error().code,
                           strprintf("sn%d: code fetch failed: %s", sn,
                                     r.error().message.c_str()));
    }
  }
  co_return Status{};
}

sim::Task<Status> BootSequencer::stage_cold_reset(int sn) {
  const topology::SupernodePlan& snp =
      machine_.plan().supernodes()[static_cast<std::size_t>(sn)];
  for (int chip_idx : snp.chips) {
    opteron::OpteronChip& chip = machine_.chip(chip_idx);
    chip.warm_reset();
    for (int p = 0; p < opteron::kMaxLinks; ++p) {
      ht::LinkRegs& lr = chip.endpoint(p).regs();
      lr.force_noncoherent = false;              // cold reset clears the latch
      lr.requested_freq = ht::LinkFreq::kHt200;  // power-on default
      lr.requested_width = ht::LinkWidth::k16;
    }
  }
  // Hardware default decode of the boot ROM on the BSP.
  const topology::ChipPlan& bsp =
      machine_.plan().chips()[static_cast<std::size_t>(snp.chips[0])];
  TCC_ASSERT(bsp.southbridge_port.has_value(), "BSP has no southbridge");
  Status s = machine_.chip(bsp.chip).nb().regs().add_mmio_range(
      AddrRange{PhysAddr{kRomWindowBase}, kRomWindowSize}, *bsp.southbridge_port,
      /*non_posted_allowed=*/true);
  if (!s.ok()) co_return s;
  co_await machine_.engine().delay(Picoseconds::from_us(5.0));  // reset ramp
  co_return Status{};
}

sim::Task<Status> BootSequencer::stage_coherent_enumeration(int sn) {
  Status fetch = co_await fetch_code(sn, image_.stage_code_bytes(BootStage::kCoherentEnumeration));
  if (!fetch.ok()) co_return fetch;

  // Validate the ROM image the fetches came from.
  auto parsed = FirmwareImage::parse(machine_.southbridge(sn).rom());
  if (!parsed.ok()) co_return parsed.error();

  const topology::SupernodePlan& snp =
      machine_.plan().supernodes()[static_cast<std::size_t>(sn)];
  const std::set<int> members(snp.chips.begin(), snp.chips.end());

  // Depth-first search from the BSP over coherent links, using the NodeID-7
  // sentinel exactly as §IV.E describes. The paper's patch: "only performs
  // coherent link enumeration for the nodes within a Supernode" — stock
  // coreboot would walk the still-coherent TCCluster links too.
  //
  // Pre-order traversal: each newly found node is explored before the
  // current node's next port. On the canonical internal wiring (ports
  // allocated in member order) this lands NodeID m on member m — including
  // around the k=4 ring, where scan-all-ports labelling would hand the
  // BSP's two neighbours NodeIDs 1 and 2.
  std::vector<int> dfs_order;
  struct Frame {
    int chip;
    int port;
  };
  std::vector<Frame> stack{Frame{snp.chips[0], 0}};
  machine_.chip(snp.chips[0]).nb().regs().node_id = 0;
  dfs_order.push_back(snp.chips[0]);
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.port >= opteron::kMaxLinks) {
      stack.pop_back();
      continue;
    }
    const int cur = f.chip;
    const int port = f.port++;
    const topology::ChipPlan& cp = machine_.plan().chips()[static_cast<std::size_t>(cur)];
    ht::HtEndpoint& ep = machine_.chip(cur).endpoint(port);
    if (!ep.regs().init_complete || ep.regs().kind != ht::LinkKind::kCoherent) continue;
    const bool is_tcc_wire = (cp.tccluster_ports >> port) & 1u;
    if (is_tcc_wire && !options_.stock_firmware) continue;  // the paper's patch
    auto peer = machine_.peer_of(topology::PortRef{cur, port});
    if (!peer) continue;
    // Each register access across the fabric costs a config cycle.
    co_await machine_.engine().delay(Picoseconds::from_ns(200.0));
    opteron::NorthbridgeRegs& peer_regs = machine_.chip(peer->chip).nb().regs();
    if (!members.contains(peer->chip)) {
      // Stock firmware walked across a (still-coherent) TCCluster link and
      // found a node of ANOTHER Supernode — possibly already claimed by
      // that Supernode's own racing BSP. Either way the coherent fabric
      // is corrupt.
      co_return make_error(
          ErrorCode::kConfigConflict,
          strprintf("sn%d: stock coherent enumeration escaped the Supernode "
                    "through a TCCluster link and found foreign node chip%d — "
                    "two BSPs now fight over one coherent fabric",
                    sn, peer->chip));
    }
    if (peer_regs.node_id != opteron::kUnassignedNodeId) continue;  // visited
    peer_regs.node_id = static_cast<int>(dfs_order.size());
    dfs_order.push_back(peer->chip);
    stack.push_back(Frame{peer->chip, 0});
  }

  if (static_cast<int>(dfs_order.size()) != static_cast<int>(snp.chips.size())) {
    co_return make_error(ErrorCode::kConfigConflict,
                         strprintf("sn%d: enumeration found %d nodes, expected %d", sn,
                                   static_cast<int>(dfs_order.size()),
                                   static_cast<int>(snp.chips.size())));
  }
  // The canonical wiring order makes DFS ids coincide with planned members.
  for (std::size_t i = 0; i < dfs_order.size(); ++i) {
    const topology::ChipPlan& cp =
        machine_.plan().chips()[static_cast<std::size_t>(dfs_order[i])];
    if (cp.member != static_cast<int>(i)) {
      co_return make_error(ErrorCode::kConfigConflict,
                           strprintf("sn%d: DFS NodeID %d landed on member %d", sn,
                                     static_cast<int>(i), cp.member));
    }
  }
  co_return Status{};
}

sim::Task<Status> BootSequencer::stage_force_noncoherent(int sn) {
  Status fetch = co_await fetch_code(sn, image_.stage_code_bytes(BootStage::kForceNonCoherent));
  if (!fetch.ok()) co_return fetch;
  const topology::SupernodePlan& snp =
      machine_.plan().supernodes()[static_cast<std::size_t>(sn)];
  for (int chip_idx : snp.chips) {
    const topology::ChipPlan& cp =
        machine_.plan().chips()[static_cast<std::size_t>(chip_idx)];
    for (int port = 0; port < opteron::kMaxLinks; ++port) {
      ht::LinkRegs& lr = machine_.chip(chip_idx).endpoint(port).regs();
      if ((cp.tccluster_ports >> port) & 1u) {
        // The undocumented debug register (§IV.B) + the frequency raise (§V).
        lr.force_noncoherent = true;
        lr.requested_freq = options_.tccluster_freq;
      } else if ((cp.coherent_ports >> port) & 1u) {
        lr.requested_freq = ht::LinkFreq::kHt2600;  // full speed inside the Supernode
      }
    }
  }
  co_return Status{};
}

sim::Task<Status> BootSequencer::stage_northbridge_init(int sn) {
  Status fetch = co_await fetch_code(sn, image_.stage_code_bytes(BootStage::kNorthbridgeInit));
  if (!fetch.ok()) co_return fetch;
  const topology::SupernodePlan& snp =
      machine_.plan().supernodes()[static_cast<std::size_t>(sn)];
  for (int chip_idx : snp.chips) {
    const topology::ChipPlan& cp =
        machine_.plan().chips()[static_cast<std::size_t>(chip_idx)];
    opteron::NorthbridgeRegs& regs = machine_.chip(chip_idx).nb().regs();
    regs.node_id = cp.node_id;
    if (Status s = regs.add_dram_range(cp.dram, cp.node_id); !s.ok()) co_return s;
    for (const auto& peer : cp.peer_dram) {
      if (Status s = regs.add_dram_range(peer.range, peer.node_id); !s.ok()) co_return s;
    }
    for (const topology::MmioPlan& m : cp.mmio) {
      if (Status s = regs.add_mmio_range(m.range, m.port, /*non_posted_allowed=*/false);
          !s.ok()) {
        co_return s;
      }
    }
    // DRAM-pair spill routes: remote intervals that did not fit the MMIO
    // register file, homed at a routed (pseudo-)NodeID alias instead. The
    // routing-table write below gives the alias its egress port.
    for (const topology::ChipPlan::DramRoute& dr : cp.dram_routes) {
      if (Status s = regs.add_dram_range(dr.range, dr.node_id); !s.ok()) co_return s;
    }
    for (int member = 0; member < 8; ++member) {
      const int port = cp.route_to_member[static_cast<std::size_t>(member)];
      regs.routes[static_cast<std::size_t>(member)] =
          opteron::RouteReg{port < 0 ? opteron::RouteReg::kSelf : port,
                            port < 0 ? opteron::RouteReg::kSelf : port,
                            0};
    }
    regs.tccluster_mode = true;
    regs.tccluster_links = cp.tccluster_ports;
    regs.broadcast_forward_mask = cp.coherent_ports;
    regs.suppress_remote_broadcasts = true;
    co_await machine_.engine().delay(Picoseconds::from_ns(500.0));  // config cycles
  }
  co_return Status{};
}

sim::Task<Status> BootSequencer::stage_cpu_msr_init(int sn) {
  Status fetch = co_await fetch_code(sn, image_.stage_code_bytes(BootStage::kCpuMsrInit));
  if (!fetch.ok()) co_return fetch;
  const topology::SupernodePlan& snp =
      machine_.plan().supernodes()[static_cast<std::size_t>(sn)];
  for (int chip_idx : snp.chips) {
    opteron::OpteronChip& chip = machine_.chip(chip_idx);
    // Local Supernode memory is cacheable; every member maps the whole
    // Supernode range WB (coherent fabric inside).
    if (Status s = chip.set_mtrr_all_cores(snp.range, opteron::MemType::kWriteBack);
        !s.ok()) {
      co_return s;
    }
    // Remote memory is write-combining so stores become max-sized HT packets
    // (§V "CPU MSR Init", §VI). Two complement entries — everything below
    // and above the local Supernode window — cover every remote interval,
    // including DRAM-pair spill routes, in O(1) MTRR entries at any scale.
    const AddrRange global = machine_.plan().global_range();
    if (global.base < snp.range.base) {
      const AddrRange below{global.base, snp.range.base.value() - global.base.value()};
      if (Status s = chip.set_mtrr_all_cores(below, opteron::MemType::kWriteCombining);
          !s.ok()) {
        co_return s;
      }
    }
    if (snp.range.end() < global.end()) {
      const AddrRange above{snp.range.end(),
                            global.end().value() - snp.range.end().value()};
      if (Status s = chip.set_mtrr_all_cores(above, opteron::MemType::kWriteCombining);
          !s.ok()) {
        co_return s;
      }
    }
  }
  co_return Status{};
}

sim::Task<Status> BootSequencer::stage_memory_init(int sn) {
  Status fetch = co_await fetch_code(sn, image_.stage_code_bytes(BootStage::kMemoryInit));
  if (!fetch.ok()) co_return fetch;
  const topology::SupernodePlan& snp =
      machine_.plan().supernodes()[static_cast<std::size_t>(sn)];
  for (int chip_idx : snp.chips) {
    const topology::ChipPlan& cp =
        machine_.plan().chips()[static_cast<std::size_t>(chip_idx)];
    machine_.chip(chip_idx).set_dram_window(cp.dram);
    co_await machine_.engine().delay(kDdrTrainingTime);
  }
  co_return Status{};
}

sim::Task<Status> BootSequencer::stage_exit_car(int sn) {
  // Copy the firmware from ROM into DRAM — the one big slow transfer that
  // makes everything after it fast (§V "EXIT CAR").
  Status fetch = co_await fetch_code(sn, image_.total_bytes());
  if (!fetch.ok()) co_return fetch;
  car_exited_[static_cast<std::size_t>(sn)] = true;
  co_return Status{};
}

sim::Task<Status> BootSequencer::stage_noncoherent_enumeration(int sn) {
  Status fetch =
      co_await fetch_code(sn, image_.stage_code_bytes(BootStage::kNonCoherentEnumeration));
  if (!fetch.ok()) co_return fetch;

  // Probe the southbridge link: a config read that must succeed.
  opteron::Core& core = machine_.bsp_core(sn);
  auto probe = co_await core.load_u64(PhysAddr{kRomWindowBase});
  if (!probe.ok()) {
    co_return make_error(ErrorCode::kNotFound,
                         strprintf("sn%d: southbridge probe failed", sn));
  }

  if (options_.stock_firmware) {
    // Stock coreboot sees non-coherent devices behind the TCCluster links
    // and starts IO enumeration. The far side silently drops non-posted
    // requests (§IV.A): the probe never completes. This is the hang the
    // paper's patch ("This needs to be disabled for each TCCluster link")
    // avoids.
    co_return make_error(ErrorCode::kProtocolViolation,
                         strprintf("sn%d: stock non-coherent enumeration hangs "
                                   "probing the TCCluster link for IO devices",
                                   sn));
  }
  co_return Status{};
}

sim::Task<Status> BootSequencer::stage_post_init(int sn) {
  Status fetch =
      co_await fetch_code(sn, image_.stage_code_bytes(BootStage::kPostInitialization));
  if (!fetch.ok()) co_return fetch;
  co_await machine_.engine().delay(kPostInitTime);
  co_return Status{};
}

sim::Task<Status> BootSequencer::stage_load_os(int sn) {
  // The kernel payload streams in from the southbridge (ROM-speed path),
  // lands in DRAM, and the system drops into 64-bit mode.
  const bool was_car = car_exited_[static_cast<std::size_t>(sn)];
  car_exited_[static_cast<std::size_t>(sn)] = false;  // payload comes from ROM
  Status fetch = co_await fetch_code(sn, image_.os_payload_bytes());
  car_exited_[static_cast<std::size_t>(sn)] = was_car;
  if (!fetch.ok()) co_return fetch;
  co_return Status{};
}

}  // namespace tcc::firmware
