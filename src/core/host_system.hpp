// HostSystem: wires the full host network together -- cores (LFB), CHA,
// memory controller + DRAM, IIO + PCIe devices -- runs an experiment
// window, and collects Metrics.
//
// This is the main entry point of the library:
//
//   auto cfg = core::cascade_lake();
//   core::HostSystem host(cfg, /*seed=*/42);
//   host.add_core(workloads::c2m_read(region));
//   host.add_storage(workloads::fio_sequential_read(cfg));
//   host.run(ms(0.5), ms(2));
//   core::Metrics m = host.collect();
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "cha/cha.hpp"
#include "common/snapshot.hpp"
#include "core/metrics.hpp"
#include "core/presets.hpp"
#include "cpu/core.hpp"
#include "flow/domain_registry.hpp"
#include "iio/iio.hpp"
#include "iio/storage_device.hpp"
#include "mc/memory_controller.hpp"
#include "sim/simulator.hpp"

namespace hostnet::core {

/// Hooks for an externally-owned component (NIC / transport model) wired
/// into the host's lifecycle. `start` runs when the simulation starts,
/// `reset` on every counter reset. `save`/`load` make the component
/// checkpointable: save returns an opaque state blob, load restores from
/// one. HostSystem::snapshot() refuses (throws) when an attached external
/// has no save hook -- a silent partial checkpoint would fork diverging
/// simulations.
struct ExternalHooks {
  std::function<void()> start;
  std::function<void(Tick)> reset;
  std::function<std::shared_ptr<const void>()> save;
  std::function<void(const std::shared_ptr<const void>&)> load;
};

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

  /// Register an externally-owned component (e.g. a NIC model from the net
  /// library): `start` runs when the simulation starts, `reset` on every
  /// counter reset (with the reset time). Externals attached through this
  /// overload have no save/load hooks, so the host is not checkpointable
  /// (snapshot() throws).
  void attach(std::function<void()> start, std::function<void(Tick)> reset);

  /// Full-hooks overload: components that also provide save/load keep the
  /// host checkpointable.
  void attach(ExternalHooks hooks);

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

  /// The host-wide credit-pool index: every component's flow::CreditPool is
  /// registered here at construction, keyed by the paper's credit domains.
  /// collect() derives the domain observations from it.
  flow::DomainRegistry& domains() { return registry_; }

  const HostConfig& config() const { return cfg_; }
  sim::Simulator& sim() { return sim_; }
  const sim::Simulator& sim() const { return sim_; }
  cha::Cha& cha() { return *cha_; }
  mc::MemoryController& mc() { return *mc_; }
  iio::Iio& iio(std::size_t stack = 0) { return *iios_[stack]; }
  std::size_t iio_stacks() const { return iios_.size(); }
  std::vector<std::unique_ptr<cpu::Core>>& cores() { return cores_; }
  std::vector<std::unique_ptr<iio::StorageDevice>>& storage() { return storage_; }

  // -- checkpointing (DESIGN.md section 4e) -----------------------------------
  //
  // A Snapshot captures every stateful component plus the pending-event
  // queue at a quiesce point (between events -- after run()/run_more()
  // returns). Component snapshots carry raw pointers into THIS host (event
  // closures' `this` captures, CreditWaiter*, mem::Request::completer), so
  // a snapshot restores only into the host that produced it: `owner` is
  // checked and restore() throws std::logic_error on mismatch. Topology
  // (cores/stacks/devices added) is construction state and must match by
  // construction -- asserted, not saved.
  struct State {
    bool started = false;
    Tick measure_start = 0;
    bool operator==(const State&) const = default;
  };
  struct Snapshot {
    const void* owner = nullptr;  ///< the producing HostSystem
    State st;
    sim::Simulator::Snapshot sim;
    mc::MemoryController::Snapshot mc;
    cha::Cha::Snapshot cha;
    std::vector<iio::Iio::Snapshot> iios;
    std::vector<cpu::Core::Snapshot> cores;
    std::vector<iio::StorageDevice::Snapshot> storage;
    std::vector<std::shared_ptr<const void>> externals;
  };

  /// Save the full host state into `out` (recycled Snapshots allocate
  /// nothing once warm). Throws std::logic_error if an attached external
  /// has no save hook. Under HOSTNET_CHECKED also audits pool invariants.
  void save_state(Snapshot& out) const;
  Snapshot snapshot() const {
    Snapshot s;
    save_state(s);
    return s;
  }

  /// Restore the state captured by save_state()/snapshot(). Throws
  /// std::logic_error when `s` was produced by a different HostSystem.
  /// Under HOSTNET_CHECKED, re-saves the event queue after the restore and
  /// audits it is identical to the snapshot (restore-then-collect would
  /// bit-match), then verifies host invariants.
  void restore(const Snapshot& s);

 private:
  void register_iio_pools(std::size_t stack);

  const HostConfig cfg_;
  const std::uint64_t seed_;
  sim::Simulator sim_;
  // hostnet-audit: allow(snapshot-state, topology: pool pointers, added while building)
  flow::DomainRegistry registry_;
  std::unique_ptr<mc::MemoryController> mc_;
  std::unique_ptr<cha::Cha> cha_;
  std::vector<std::unique_ptr<iio::Iio>> iios_;
  std::vector<std::unique_ptr<cpu::Core>> cores_;
  std::vector<std::unique_ptr<iio::StorageDevice>> storage_;
  // hostnet-audit: allow(snapshot-state, topology: hooks, attached while building)
  std::vector<ExternalHooks> externals_;
  State st_;
};

HOSTNET_SNAPSHOT_COVERS(HostSystem);

/// Namespace-level alias: the checkpoint most callers pass around.
using HostSnapshot = HostSystem::Snapshot;

}  // namespace hostnet::core
