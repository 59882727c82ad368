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

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "cha/cha.hpp"
#include "common/fields.hpp"
#include "core/metrics.hpp"
#include "core/presets.hpp"
#include "cpu/core.hpp"
#include "flow/domain_registry.hpp"
#include "iio/iio.hpp"
#include "iio/storage_device.hpp"
#include "mc/memory_controller.hpp"
#include "sim/simulator.hpp"

namespace hostnet::core {

/// A component that HostSystem::attach can wire into the host's lifecycle:
/// start() when the simulation starts, reset_counters(now) on every counter
/// reset, and a HOSTNET_COMPONENT table, whose generated save_state /
/// load_state join the host's checkpoints and which the checked build's pool
/// audit walks.
template <class T>
concept Attachable = fields::Component<T> && requires(T& c, Tick now) {
  typename T::Snapshot;
  c.start();
  c.reset_counters(now);
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

  /// Wire an externally-owned component (a NIC, a transport, hostCC) into
  /// the host: its start() runs when the simulation starts,
  /// reset_counters(now) on every counter reset, and the host's Snapshot
  /// holds its Snapshot. Checked builds audit its credit pools with
  /// the host's. `c` must outlive the host's runs.
  template <Attachable T>
  void attach(T& c) {
    assert(!st_.started && "attach components before run()");
    externals_.push_back(std::make_unique<ExternalOf<T>>(c));
  }

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
  // The member table below generates Snapshot, save_state and load_state: a
  // Snapshot captures every stateful component, the attached externals and
  // the pending-event queue at a quiesce point (between events -- after
  // run()/run_more() returns), and recycled Snapshots allocate nothing once
  // warm. Component snapshots carry raw pointers into THIS host (event
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
  /// An attached component, type-erased (attach() builds one per type); its
  /// Snapshot holds the component's own.
  struct External : fields::Erased {
    virtual void start() = 0;
    virtual void reset_counters(Tick now) = 0;
    virtual void verify_registered(const flow::DomainRegistry& registry) const = 0;
    HOSTNET_COMPONENT_INTERFACE(External)
  };
  template <class T>
  struct ExternalOf final : fields::ErasedRef<T, External> {
    using fields::ErasedRef<T, External>::ErasedRef;
    void start() override { this->c_.start(); }
    void reset_counters(Tick now) override { this->c_.reset_counters(now); }
    void verify_registered(const flow::DomainRegistry& registry) const override {
      registry.verify_registered(this->c_, "external");
    }
  };

  void register_iio_pools(std::size_t stack);

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
  std::vector<std::unique_ptr<External>> externals_;
  State st_;
  // Topology, not state: the registry's pool pointers are added while the
  // host is built, before it runs. owner_ comes first, so a foreign snapshot
  // is refused before anything is loaded.
  HOSTNET_COMPONENT_EXEMPT(registry_)
  HOSTNET_COMPONENT(HostSystem, owner_, cfg_, seed_, sim_, registry_, mc_, cha_, iios_, cores_,
                    storage_, externals_, st_)

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
