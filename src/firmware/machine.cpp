#include "firmware/machine.hpp"

namespace tcc::firmware {

Machine::Machine(sim::Engine& engine, topology::ClusterPlan plan,
                 opteron::ChipConfig chip_template)
    : engine_(engine), plan_(std::move(plan)) {
  for (const topology::ChipPlan& cp : plan_.chips()) {
    opteron::ChipConfig cc = chip_template;
    cc.name = "sn" + std::to_string(cp.supernode) + ".n" + std::to_string(cp.member);
    chips_.push_back(std::make_unique<opteron::OpteronChip>(engine_, cc));
  }

  for (const topology::WireSpec& w : plan_.wires()) {
    links_.push_back(std::make_unique<ht::HtLink>(
        engine_, chip(w.a.chip).endpoint(w.a.port), chip(w.b.chip).endpoint(w.b.port),
        w.medium));
  }

  for (const topology::SupernodePlan& sn : plan_.supernodes()) {
    auto sb = std::make_unique<Southbridge>(engine_, "sn" + std::to_string(sn.index) + ".sb");
    const topology::ChipPlan& bsp = plan_.chips()[static_cast<std::size_t>(sn.chips[0])];
    TCC_ASSERT(bsp.southbridge_port.has_value(), "BSP plan lacks a southbridge port");
    sb_links_.push_back(std::make_unique<ht::HtLink>(
        engine_, chip(bsp.chip).endpoint(*bsp.southbridge_port), sb->endpoint(),
        ht::LinkMedium{.length_inches = 4.0}));
    southbridges_.push_back(std::move(sb));
  }
}

std::vector<ht::HtLink*> Machine::tccluster_links() {
  std::vector<ht::HtLink*> out;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    if (plan_.wires()[i].tccluster) out.push_back(links_[i].get());
  }
  return out;
}

std::optional<topology::PortRef> Machine::peer_of(topology::PortRef ref) const {
  for (const topology::WireSpec& w : plan_.wires()) {
    if (w.a == ref) return w.b;
    if (w.b == ref) return w.a;
  }
  return std::nullopt;
}

ht::HtLink* Machine::link_at(topology::PortRef ref) {
  for (std::size_t i = 0; i < links_.size(); ++i) {
    const topology::WireSpec& w = plan_.wires()[i];
    if (w.a == ref || w.b == ref) return links_[i].get();
  }
  return nullptr;
}

Status Machine::apply_routing(const topology::ClusterPlan& degraded) {
  if (degraded.chips().size() != plan_.chips().size() ||
      degraded.wires().size() != plan_.wires().size()) {
    return make_error(ErrorCode::kInvalidArgument,
                      "degraded plan does not describe this machine");
  }
  const AddrRange global = plan_.global_range();
  for (const topology::ChipPlan& cp : degraded.chips()) {
    opteron::NorthbridgeRegs& regs = chip(cp.chip).nb().regs();
    for (auto& m : regs.mmio) {
      if (m.enabled && global.contains(m.range.base)) m = opteron::MmioRangeReg{};
    }
    for (const topology::MmioPlan& m : cp.mmio) {
      if (Status s = regs.add_mmio_range(m.range, m.port, /*non_posted_allowed=*/false);
          !s.ok()) {
        return s;
      }
    }
    // DRAM-pair spill routes point at remote Supernodes, so they change with
    // the routing too: drop every DRAM entry outside the local Supernode and
    // install the degraded plan's spill set.
    const AddrRange local =
        degraded.supernodes()[static_cast<std::size_t>(cp.supernode)].range;
    for (auto& d : regs.dram) {
      if (d.enabled && !local.contains(d.range.base)) d = opteron::DramRangeReg{};
    }
    for (const topology::ChipPlan::DramRoute& dr : cp.dram_routes) {
      if (Status s = regs.add_dram_range(dr.range, dr.node_id); !s.ok()) return s;
    }
    for (int member = 0; member < opteron::kMaxCoherentNodes; ++member) {
      const int port = cp.route_to_member[static_cast<std::size_t>(member)];
      regs.routes[static_cast<std::size_t>(member)] =
          opteron::RouteReg{port < 0 ? opteron::RouteReg::kSelf : port,
                            port < 0 ? opteron::RouteReg::kSelf : port,
                            regs.routes[static_cast<std::size_t>(member)].broadcast_links};
    }
  }
  plan_ = degraded;
  return {};
}

opteron::Core& Machine::bsp_core(int supernode) {
  const auto& sn = plan_.supernodes().at(static_cast<std::size_t>(supernode));
  return chip(sn.chips[0]).core(0);
}

}  // namespace tcc::firmware
