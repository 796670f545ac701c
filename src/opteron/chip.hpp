// One Opteron package: cores + write-combining units + northbridge + memory
// controller + four HyperTransport link endpoints (Figure 1 of the paper).
#pragma once

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "ht/link.hpp"
#include "opteron/core.hpp"
#include "opteron/memory_controller.hpp"
#include "opteron/northbridge.hpp"
#include "sim/engine.hpp"

namespace tcc::opteron {

struct ChipConfig {
  std::string name = "node";
  int num_cores = 4;  ///< Shanghai: four cores
  int nb_outbound_depth = kNbOutboundDepth;
};

class OpteronChip {
 public:
  OpteronChip(sim::Engine& engine, ChipConfig config);

  OpteronChip(const OpteronChip&) = delete;
  OpteronChip& operator=(const OpteronChip&) = delete;

  [[nodiscard]] const std::string& name() const { return config_.name; }
  [[nodiscard]] const ChipConfig& config() const { return config_; }

  [[nodiscard]] Northbridge& nb() { return nb_; }
  [[nodiscard]] const Northbridge& nb() const { return nb_; }
  [[nodiscard]] MemoryController& mc() { return mc_; }
  [[nodiscard]] Core& core(int i) { return *cores_.at(static_cast<std::size_t>(i)); }
  [[nodiscard]] int num_cores() const { return static_cast<int>(cores_.size()); }

  /// Link endpoint for port `i` (0..3). Unwired ports are valid endpoints
  /// that simply never train.
  [[nodiscard]] ht::HtEndpoint& endpoint(int i) {
    return *endpoints_.at(static_cast<std::size_t>(i));
  }

  /// Firmware "Memory Init" stage: place this node's DIMMs in the physical
  /// address map (§V).
  void set_dram_window(AddrRange range);

  /// Firmware "CPU MSR Init" stage: mirror an MTRR entry onto all cores.
  Status set_mtrr_all_cores(AddrRange range, MemType type);

  /// Reset-time state: NodeID returns to the unassigned sentinel and address
  /// maps clear; latched link requests (freq/width/force-noncoherent)
  /// survive, which is what makes the warm-reset trick work (§IV.B).
  void warm_reset();

 private:
  sim::Engine& engine_;
  ChipConfig config_;
  MemoryController mc_;
  Northbridge nb_;
  std::array<std::unique_ptr<ht::HtEndpoint>, kMaxLinks> endpoints_;
  std::vector<std::unique_ptr<Core>> cores_;
};

}  // namespace tcc::opteron
