// HostSystem: wires the full host network together -- cores (LFB), CHA,
// memory controller + DRAM, IIO + PCIe devices (storage, NICs, TCP
// receivers), hostCC -- runs an experiment window, and collects Metrics.
//
// This is the main entry point of the library:
//
//   auto cfg = core::cascade_lake();
//   core::HostSystem host(cfg, /*seed=*/42);
//   host.add_core(workloads::c2m_read(region));
//   host.add_storage(workloads::fio_sequential_read(cfg));
//   host.run(ms(0.5), ms(2));
//   core::Metrics m = host.collect();
//
// Every component is owned here, listed once in the member table below:
// that list is the host's checkpoint, its lifecycle order (cores, storage,
// NICs, TCP receivers, hostCC) and, walked for flow::CreditPools, its
// DomainRegistry.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cha/cha.hpp"
#include "common/fields.hpp"
#include "core/hostcc.hpp"
#include "core/metrics.hpp"
#include "core/presets.hpp"
#include "cpu/core.hpp"
#include "flow/domain_registry.hpp"
#include "iio/iio.hpp"
#include "iio/storage_device.hpp"
#include "mc/memory_controller.hpp"
#include "net/dctcp.hpp"
#include "net/nic_device.hpp"
#include "sim/simulator.hpp"

namespace hostnet::core {

class HostSystem {
 public:
  explicit HostSystem(const HostConfig& cfg, std::uint64_t seed = 1);

  HostSystem(const HostSystem&) = delete;
  HostSystem& operator=(const HostSystem&) = delete;

  /// Add a core running `wl`. Returns the core for metric inspection.
  cpu::Core& add_core(const cpu::CoreWorkload& wl);

  /// Add a storage device generating P2M traffic, attached to IIO stack
  /// `stack` (0 = the default stack).
  iio::StorageDevice& add_storage(const iio::StorageConfig& scfg, std::size_t stack = 0);

  /// Add another IIO stack (its own credit pools, sharing the CHA), as on
  /// multi-stack servers; returns its index for add_storage(). Must be
  /// called before run().
  std::size_t add_iio_stack(const iio::IioConfig& cfg);

  /// Add a NIC that DMA-writes through IIO stack 0 (NicConfig's defaults
  /// are the RDMA-write NIC's).
  net::NicDevice& add_nic(const net::NicConfig& ncfg);

  /// Add a TCP receiver: its NIC DMA-writes through IIO stack 0 at the
  /// host's PCIe write rate, and its copy cores are host-configured cores.
  net::TcpReceiver& add_tcp_receiver(const net::TcpConfig& tcfg);

  /// Add a hostCC controller pacing every core of the host on IIO stack 0's
  /// write latency.
  hostcc::HostCongestionController& add_hostcc(const hostcc::HostccConfig& hcfg);

  /// Run `warmup` of simulated time, reset all counters, then run `measure`.
  void run(Tick warmup, Tick measure);

  /// Continue the simulation for `extra` more time (counters keep running).
  void run_more(Tick extra);

  /// Reset every counter now (starts a fresh measurement window).
  void reset_counters();

  /// Snapshot all metrics for the window [measure_start, now]. A pure read:
  /// a run read mid-way continues exactly as an unread one would.
  Metrics collect() const;

  /// Audit the whole host at a quiesce point (between events): credit
  /// conservation in every flow-control domain, MC arena integrity, and
  /// bank-ownership bijection. Aborts with a diagnostic under
  /// HOSTNET_CHECKED builds; compiles to nothing otherwise. Called
  /// automatically from reset_counters() and collect(). See DESIGN.md 4c.
  void verify_invariants() const;

  /// The host-wide credit-pool index, keyed by the paper's credit domains:
  /// every flow::CreditPool in the member table, indexed when the host
  /// starts (empty before). collect() derives the domain observations from
  /// it.
  const flow::DomainRegistry& domains() const { return registry_; }

  const HostConfig& config() const { return cfg_; }
  sim::Simulator& sim() { return sim_; }
  const sim::Simulator& sim() const { return sim_; }
  cha::Cha& cha() { return *cha_; }
  mc::MemoryController& mc() { return *mc_; }
  iio::Iio& iio(std::size_t stack = 0) { return *iios_[stack]; }
  std::size_t iio_stacks() const { return iios_.size(); }
  std::vector<std::unique_ptr<cpu::Core>>& cores() { return cores_; }
  std::vector<std::unique_ptr<iio::StorageDevice>>& storage() { return storage_; }
  const std::vector<std::unique_ptr<net::NicDevice>>& nics() const { return nics_; }
  const std::vector<std::unique_ptr<net::TcpReceiver>>& tcp_receivers() const {
    return tcp_receivers_;
  }
  const std::vector<std::unique_ptr<hostcc::HostCongestionController>>& hostcc() const {
    return hostcc_;
  }

  // -- checkpointing (DESIGN.md section 4e) -----------------------------------
  //
  // The member table below generates Snapshot, save_state and load_state: a
  // Snapshot captures every stateful component and the pending-event queue
  // at a quiesce point (between events -- after run()/run_more() returns),
  // and recycled Snapshots allocate nothing once warm. Component snapshots carry raw pointers into THIS host (event
  // closures' `this` captures, CreditWaiter*, mem::Request::completer), so a
  // snapshot restores only into the host that produced it: owner_ stamps it,
  // and loading it into another host throws std::logic_error. Topology
  // (cores/stacks/devices added) is construction state and must match by
  // construction -- asserted, not saved. Snapshot's == ignores the stamp.
  struct State {
    bool started = false;
    Tick measure_start = 0;
    bool operator==(const State&) const = default;
    HOSTNET_FIELDS(State, started, measure_start)
  };

 private:
  fields::OwnerToken owner_;
  const HostConfig cfg_;
  const std::uint64_t seed_;
  sim::Simulator sim_;
  flow::DomainRegistry registry_;
  std::unique_ptr<mc::MemoryController> mc_;
  std::unique_ptr<cha::Cha> cha_;
  std::vector<std::unique_ptr<iio::Iio>> iios_;
  std::vector<std::unique_ptr<cpu::Core>> cores_;
  std::vector<std::unique_ptr<iio::StorageDevice>> storage_;
  std::vector<std::unique_ptr<net::NicDevice>> nics_;
  std::vector<std::unique_ptr<net::TcpReceiver>> tcp_receivers_;
  std::vector<std::unique_ptr<hostcc::HostCongestionController>> hostcc_;
  State st_;
  // Derived, not state: the registry indexes the pools of the components
  // below when the host starts. owner_ comes first, so a foreign snapshot
  // is refused before anything is loaded.
  HOSTNET_COMPONENT_EXEMPT(registry_)
  HOSTNET_COMPONENT(HostSystem, owner_, cfg_, seed_, sim_, registry_, mc_, cha_, iios_, cores_,
                    storage_, nics_, tcp_receivers_, hostcc_, st_)

 public:
  // Declared after the member table, which defines Snapshot.
  Snapshot snapshot() const {
    Snapshot s;
    save_state(s);
    return s;
  }

  /// Restore the state captured by save_state()/snapshot(): load_state(),
  /// which throws std::logic_error when another HostSystem produced `s`.
  /// Under HOSTNET_CHECKED, re-saves the event queue after the restore and
  /// audits it is identical to the snapshot (restore-then-collect would
  /// bit-match), then verifies host invariants.
  void restore(const Snapshot& s);
};

/// Namespace-level alias: the checkpoint most callers pass around.
using HostSnapshot = HostSystem::Snapshot;

}  // namespace hostnet::core
