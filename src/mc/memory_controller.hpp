// The memory controller: one Channel scheduler per memory channel, with
// address-map routing. The CHA talks to this class.
#pragma once

#include <memory>
#include <vector>

#include "common/fields.hpp"
#include "dram/address_map.hpp"
#include "mc/channel.hpp"

namespace hostnet::mc {

class MemoryController {
 public:
  MemoryController(sim::Simulator& sim, const ChannelConfig& cfg,
                   const dram::AddressMap& map, ChannelListener* listener)
      : map_(map) {
    channels_.reserve(map.channels());
    for (std::uint32_t i = 0; i < map.channels(); ++i)
      channels_.push_back(
          std::make_unique<Channel>(sim, cfg, map.banks_per_channel(), i, listener));
  }

  const dram::AddressMap& address_map() const { return map_; }
  std::uint32_t num_channels() const { return static_cast<std::uint32_t>(channels_.size()); }
  Channel& channel(std::uint32_t i) { return *channels_[i]; }
  const Channel& channel(std::uint32_t i) const { return *channels_[i]; }

  void reset_counters(Tick now) {
    for (auto& c : channels_) c->reset_counters(now);
  }

  /// Checked-build audit of every channel scheduler (no-op otherwise).
  void verify_invariants() const {
    for (const auto& c : channels_) c->verify_invariants();
  }

  void set_listener(ChannelListener* l) {
    for (auto& c : channels_) c->set_listener(l);
  }

 private:
  const dram::AddressMap map_;
  std::vector<std::unique_ptr<Channel>> channels_;
  HOSTNET_COMPONENT(MemoryController, map_, channels_)
};

}  // namespace hostnet::mc
